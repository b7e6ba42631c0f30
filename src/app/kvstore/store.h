// The in-memory data-structure store (the paper's Redis stand-in).
// Pure data structures + operations; no costs, no I/O — KvService layers the
// cost model and the StateMachine interface on top.
#ifndef SRC_APP_KVSTORE_STORE_H_
#define SRC_APP_KVSTORE_STORE_H_

#include <cstdint>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace hovercraft {

class KvStore {
 public:
  class Frozen;

  KvStore() = default;
  // A copy or a move takes the contents, never the freeze (Freeze below): a
  // store with a live freeze may be copied but not moved from, and one that
  // is assigned to hands its old contents to its freeze.
  KvStore(const KvStore& other) : map_(other.map_), entry_bytes_(other.entry_bytes_) {}
  KvStore(KvStore&& other) noexcept;
  KvStore& operator=(KvStore other);
  ~KvStore();

  using StringValue = std::string;
  using HashValue = std::unordered_map<std::string, std::string>;
  using ListValue = std::deque<std::string>;
  using SetValue = std::unordered_set<std::string>;
  using Value = std::variant<StringValue, HashValue, ListValue, SetValue>;

  // -- strings --
  void Set(std::string_view key, std::string_view value);
  Result<std::string> Get(std::string_view key) const;
  bool Del(std::string_view key);

  // Atomic integer increment (the value must parse as a decimal integer or
  // be absent); returns the new value.
  Result<int64_t> Incr(std::string_view key);
  // Appends to a string value (creating it); returns the new length.
  Result<size_t> Append(std::string_view key, std::string_view suffix);
  // Sets only if the key is absent; returns true if it was set.
  Result<bool> Setnx(std::string_view key, std::string_view value);

  // -- hashes --
  Status Hset(std::string_view key, std::string_view field, std::string_view value);
  Result<std::string> Hget(std::string_view key, std::string_view field) const;
  // Removes a field; returns true if it existed.
  Result<bool> Hdel(std::string_view key, std::string_view field);

  // -- lists --
  // Appends and returns the new length.
  Result<size_t> Rpush(std::string_view key, std::string_view value);
  // Negative indices count from the tail, Redis-style (-1 = last element).
  Result<std::vector<std::string>> Lrange(std::string_view key, int32_t start,
                                          int32_t stop) const;
  // The last min(limit, length) elements, newest first — the YCSB-E SCAN
  // ("query the last posts in a conversation").
  Result<std::vector<std::string>> ScanTail(std::string_view key, int32_t limit) const;

  // Pops the list head; kNotFound on missing/empty.
  Result<std::string> Lpop(std::string_view key);
  Result<size_t> Llen(std::string_view key) const;

  // -- sets --
  Result<bool> Sadd(std::string_view key, std::string_view member);
  Result<bool> Srem(std::string_view key, std::string_view member);
  Result<bool> Sismember(std::string_view key, std::string_view member) const;
  Result<size_t> Scard(std::string_view key) const;

  size_t key_count() const { return map_.size(); }
  bool Exists(std::string_view key) const { return Find(key) != nullptr; }

  // Order-insensitive digest over all keys and values; replicas with equal
  // content produce equal digests.
  uint64_t ContentDigest() const;

  // Full-store serialization for snapshot transfers. Deserialize replaces
  // the current contents.
  void SerializeTo(BufferWriter& out) const;
  Status DeserializeFrom(BufferReader& in);
  // Exact number of bytes SerializeTo writes, kept up to date by every
  // mutator, so sizing a snapshot costs O(1) instead of a walk.
  size_t SerializedSize() const { return 8 + entry_bytes_; }

  // --- Shard-move range handoff (src/shard). The predicate selects keys by
  // name, keeping the store agnostic of the shard hash. ---
  using KeyPredicate = std::function<bool(std::string_view)>;
  // Serializes only the keys matching `pred`, same wire format as
  // SerializeTo (so MergeFrom reads either).
  void SerializePartTo(BufferWriter& out, const KeyPredicate& pred) const;
  // Inserts the payload's keys into the current contents (replacing on
  // collision), instead of wiping the store like DeserializeFrom.
  Status MergeFrom(BufferReader& in);
  // Removes all keys matching `pred`; returns how many were erased.
  size_t EraseIf(const KeyPredicate& pred);

  // --- Freeze: SerializeTo's image as of now, written later, in O(1). The
  // freeze arms an undo log: right before the first change of a key, the
  // key and its value are saved, except that appends (Rpush, Append) only
  // note the length they grow from. Right before the first insert or erase,
  // which can reorder the map, the iteration order is recorded, one element
  // pointer per key. Frozen::WriteTo then writes exactly the bytes
  // SerializeTo would have written at the freeze. A store has at most one
  // live freeze; it ends when the handle is destroyed. ---
  std::unique_ptr<Frozen> Freeze();

 private:
  // Heterogeneous lookup so string_view probes do not allocate.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a == b; }
  };
  using Map = std::unordered_map<std::string, Value, Hash, Eq>;
  using Elem = Map::value_type;

  const Value* Find(std::string_view key) const;
  Elem* FindElem(std::string_view key);
  // Inserts a key known to be absent.
  Value& Insert(std::string_view key, Value value);
  // Hooks of the live freeze, if any. Every mutator calls Preserve right
  // before it changes an existing value (PreserveAppend if it only appends
  // to a list), PreserveErased right before it erases one, and
  // BeforeReshape right before it inserts or erases a key.
  void Preserve(const Elem& e);
  void PreserveAppend(const Elem& e);
  void PreserveErased(Elem& e);
  void BeforeReshape();
  // Makes `fresh` the contents. A live freeze that still needs elements of
  // the old map takes it whole: moving a map keeps every element in place.
  void ReplaceMap(Map fresh);

  Map map_;
  // Serialized bytes of every entry in map_ (SerializedSize minus the count).
  size_t entry_bytes_ = 0;
  Frozen* freeze_ = nullptr;  // the live freeze, owned by its handle
};

// A frozen store image (KvStore::Freeze). The handle may outlive the store,
// but WriteTo after the store is gone fails an HC_CHECK.
class KvStore::Frozen {
 public:
  Frozen(const Frozen&) = delete;
  Frozen& operator=(const Frozen&) = delete;
  ~Frozen();

  // Exact number of bytes WriteTo appends: SerializedSize() at the freeze.
  size_t size() const { return size_; }
  void WriteTo(BufferWriter* w) const;

 private:
  friend class KvStore;
  explicit Frozen(KvStore* store);

  // An element's value as it was at the freeze, once it changed.
  struct Undo {
    static constexpr size_t kWhole = SIZE_MAX;
    // The element's key and value at the freeze; null while the value is a
    // list that has only grown by appends, of which the first `prefix` items
    // are the frozen value.
    std::unique_ptr<const Elem> saved;
    size_t prefix = kWhole;
  };

  // Saves `value` (e's value at the freeze, or more if only appends grew it)
  // as e's undo record.
  void Save(const Elem& e, Value value);

  KvStore* store_;  // null once the store is destroyed
  size_t count_;    // keys at the freeze
  size_t size_;
  // Keyed by element address. An element is saved whole before it is
  // erased, so a key inserted later at a reused address finds that record
  // complete and leaves it alone. Keys inserted after the freeze get records
  // too; WriteTo visits only the frozen addresses.
  std::unordered_map<const Elem*, Undo> undo_;
  // The iteration order at the freeze, recorded before the first insert or
  // erase; until then the map itself still iterates in that order.
  bool ordered_ = false;
  std::vector<const Elem*> order_;
  // The map DeserializeFrom (or an assignment) replaced while this freeze
  // was live: it still owns the frozen elements never saved.
  bool retired_ = false;
  Map retired_map_;
};

}  // namespace hovercraft

#endif  // SRC_APP_KVSTORE_STORE_H_
