#include "src/app/kvstore/store.h"

#include <algorithm>
#include <charconv>

#include "src/common/buffer.h"
#include "src/common/check.h"

namespace hovercraft {

namespace {

// Serialized sizes (SerializeEntry below): a string is a u32 length plus its
// bytes; an entry is its key string, a u8 tag and the value, where hashes,
// lists and sets carry a u64 element count.
size_t StrBytes(std::string_view s) { return 4 + s.size(); }

size_t ValueBytes(const KvStore::Value& value) {
  size_t n = 1;  // tag
  if (const auto* s = std::get_if<KvStore::StringValue>(&value)) {
    n += StrBytes(*s);
  } else if (const auto* h = std::get_if<KvStore::HashValue>(&value)) {
    n += 8;
    for (const auto& [field, v] : *h) {
      n += StrBytes(field) + StrBytes(v);
    }
  } else if (const auto* l = std::get_if<KvStore::ListValue>(&value)) {
    n += 8;
    for (const std::string& item : *l) {
      n += StrBytes(item);
    }
  } else if (const auto* set = std::get_if<KvStore::SetValue>(&value)) {
    n += 8;
    for (const std::string& member : *set) {
      n += StrBytes(member);
    }
  }
  return n;
}

size_t EntryBytes(std::string_view key, const KvStore::Value& value) {
  return StrBytes(key) + ValueBytes(value);
}

// A fresh single-element container entry: key, tag, count, element.
size_t NewContainerEntryBytes(std::string_view key, size_t element_bytes) {
  return StrBytes(key) + 1 + 8 + element_bytes;
}

}  // namespace

const KvStore::Value* KvStore::Find(std::string_view key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

KvStore::Elem* KvStore::FindElem(std::string_view key) {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &*it;
}

KvStore::Value& KvStore::Insert(std::string_view key, Value value) {
  BeforeReshape();
  return map_.emplace(std::string(key), std::move(value)).first->second;
}

void KvStore::Set(std::string_view key, std::string_view value) {
  if (Elem* e = FindElem(key); e != nullptr) {
    entry_bytes_ -= EntryBytes(key, e->second);
    Preserve(*e);
    e->second = StringValue(value);
  } else {
    Insert(key, StringValue(value));
  }
  entry_bytes_ += StrBytes(key) + 1 + StrBytes(value);
}

Result<std::string> KvStore::Get(std::string_view key) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  const auto* s = std::get_if<StringValue>(v);
  if (s == nullptr) {
    return FailedPreconditionError("wrong type");
  }
  return *s;
}

bool KvStore::Del(std::string_view key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  entry_bytes_ -= EntryBytes(key, it->second);
  PreserveErased(*it);
  BeforeReshape();
  map_.erase(it);
  return true;
}

Status KvStore::Hset(std::string_view key, std::string_view field, std::string_view value) {
  Elem* e = FindElem(key);
  if (e == nullptr) {
    HashValue h;
    h.emplace(std::string(field), std::string(value));
    Insert(key, std::move(h));
    entry_bytes_ += NewContainerEntryBytes(key, StrBytes(field) + StrBytes(value));
    return Status::Ok();
  }
  auto* h = std::get_if<HashValue>(&e->second);
  if (h == nullptr) {
    return FailedPreconditionError("wrong type");
  }
  Preserve(*e);
  auto [it, inserted] = h->try_emplace(std::string(field));
  entry_bytes_ -= inserted ? 0 : StrBytes(field) + StrBytes(it->second);
  it->second = std::string(value);
  entry_bytes_ += StrBytes(field) + StrBytes(value);
  return Status::Ok();
}

Result<std::string> KvStore::Hget(std::string_view key, std::string_view field) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  const auto* h = std::get_if<HashValue>(v);
  if (h == nullptr) {
    return FailedPreconditionError("wrong type");
  }
  auto it = h->find(std::string(field));
  if (it == h->end()) {
    return NotFoundError("no such field");
  }
  return it->second;
}

Result<size_t> KvStore::Rpush(std::string_view key, std::string_view value) {
  Elem* e = FindElem(key);
  if (e == nullptr) {
    ListValue l;
    l.emplace_back(value);
    Insert(key, std::move(l));
    entry_bytes_ += NewContainerEntryBytes(key, StrBytes(value));
    return size_t{1};
  }
  auto* l = std::get_if<ListValue>(&e->second);
  if (l == nullptr) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  PreserveAppend(*e);
  l->emplace_back(value);
  entry_bytes_ += StrBytes(value);
  return l->size();
}

Result<std::vector<std::string>> KvStore::Lrange(std::string_view key, int32_t start,
                                                 int32_t stop) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  const auto* l = std::get_if<ListValue>(v);
  if (l == nullptr) {
    return Result<std::vector<std::string>>(FailedPreconditionError("wrong type"));
  }
  const int64_t n = static_cast<int64_t>(l->size());
  int64_t a = start < 0 ? n + start : start;
  int64_t b = stop < 0 ? n + stop : stop;
  a = std::clamp<int64_t>(a, 0, n);
  b = std::clamp<int64_t>(b, -1, n - 1);
  std::vector<std::string> out;
  for (int64_t i = a; i <= b; ++i) {
    out.push_back((*l)[static_cast<size_t>(i)]);
  }
  return out;
}

Result<std::vector<std::string>> KvStore::ScanTail(std::string_view key, int32_t limit) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  const auto* l = std::get_if<ListValue>(v);
  if (l == nullptr) {
    return Result<std::vector<std::string>>(FailedPreconditionError("wrong type"));
  }
  const size_t count = std::min<size_t>(static_cast<size_t>(std::max(limit, 0)), l->size());
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back((*l)[l->size() - 1 - i]);  // newest first
  }
  return out;
}


Result<int64_t> KvStore::Incr(std::string_view key) {
  Elem* e = FindElem(key);
  if (e == nullptr) {
    Insert(key, StringValue("1"));
    entry_bytes_ += StrBytes(key) + 1 + StrBytes("1");
    return int64_t{1};
  }
  auto* s = std::get_if<StringValue>(&e->second);
  if (s == nullptr) {
    return Result<int64_t>(FailedPreconditionError("wrong type"));
  }
  int64_t current = 0;
  const auto [ptr, ec] = std::from_chars(s->data(), s->data() + s->size(), current);
  if (ec != std::errc{} || ptr != s->data() + s->size()) {
    return Result<int64_t>(FailedPreconditionError("value is not an integer"));
  }
  ++current;
  Preserve(*e);
  entry_bytes_ -= s->size();
  *s = std::to_string(current);
  entry_bytes_ += s->size();
  return current;
}

Result<size_t> KvStore::Append(std::string_view key, std::string_view suffix) {
  Elem* e = FindElem(key);
  if (e == nullptr) {
    Insert(key, StringValue(suffix));
    entry_bytes_ += StrBytes(key) + 1 + StrBytes(suffix);
    return suffix.size();
  }
  auto* s = std::get_if<StringValue>(&e->second);
  if (s == nullptr) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  Preserve(*e);
  s->append(suffix);
  entry_bytes_ += suffix.size();
  return s->size();
}

Result<bool> KvStore::Setnx(std::string_view key, std::string_view value) {
  if (Find(key) != nullptr) {
    return false;
  }
  Insert(key, StringValue(value));
  entry_bytes_ += StrBytes(key) + 1 + StrBytes(value);
  return true;
}

Result<bool> KvStore::Hdel(std::string_view key, std::string_view field) {
  Elem* e = FindElem(key);
  if (e == nullptr) {
    return NotFoundError("no such key");
  }
  auto* h = std::get_if<HashValue>(&e->second);
  if (h == nullptr) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  auto it = h->find(std::string(field));
  if (it == h->end()) {
    return false;
  }
  entry_bytes_ -= StrBytes(it->first) + StrBytes(it->second);
  Preserve(*e);
  h->erase(it);
  return true;
}

Result<std::string> KvStore::Lpop(std::string_view key) {
  Elem* e = FindElem(key);
  if (e == nullptr) {
    return NotFoundError("no such key");
  }
  auto* l = std::get_if<ListValue>(&e->second);
  if (l == nullptr) {
    return Result<std::string>(FailedPreconditionError("wrong type"));
  }
  if (l->empty()) {
    return NotFoundError("empty list");
  }
  Preserve(*e);
  std::string out = std::move(l->front());
  l->pop_front();
  entry_bytes_ -= StrBytes(out);
  return out;
}

Result<size_t> KvStore::Llen(std::string_view key) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return size_t{0};
  }
  const auto* l = std::get_if<ListValue>(v);
  if (l == nullptr) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  return l->size();
}

Result<bool> KvStore::Sadd(std::string_view key, std::string_view member) {
  Elem* e = FindElem(key);
  if (e == nullptr) {
    SetValue set;
    set.emplace(member);
    Insert(key, std::move(set));
    entry_bytes_ += NewContainerEntryBytes(key, StrBytes(member));
    return true;
  }
  auto* set = std::get_if<SetValue>(&e->second);
  if (set == nullptr) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  Preserve(*e);  // before the emplace, which is also the membership test
  if (!set->emplace(member).second) {
    return false;
  }
  entry_bytes_ += StrBytes(member);
  return true;
}

Result<bool> KvStore::Srem(std::string_view key, std::string_view member) {
  Elem* e = FindElem(key);
  if (e == nullptr) {
    return NotFoundError("no such key");
  }
  auto* set = std::get_if<SetValue>(&e->second);
  if (set == nullptr) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  Preserve(*e);  // before the erase, which is also the membership test
  if (set->erase(std::string(member)) == 0) {
    return false;
  }
  entry_bytes_ -= StrBytes(member);
  return true;
}

Result<bool> KvStore::Sismember(std::string_view key, std::string_view member) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return false;
  }
  const auto* set = std::get_if<SetValue>(v);
  if (set == nullptr) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  return set->count(std::string(member)) > 0;
}

Result<size_t> KvStore::Scard(std::string_view key) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return size_t{0};
  }
  const auto* set = std::get_if<SetValue>(v);
  if (set == nullptr) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  return set->size();
}

uint64_t KvStore::ContentDigest() const {
  uint64_t digest = 0;
  for (const auto& [key, value] : map_) {
    uint64_t h = Fnv1aHash(key);
    if (const auto* s = std::get_if<StringValue>(&value)) {
      h = Fnv1aHash(*s, h ^ 1);
    } else if (const auto* hv = std::get_if<HashValue>(&value)) {
      uint64_t inner = 0;
      for (const auto& [f, val] : *hv) {
        inner ^= Fnv1aHash(val, Fnv1aHash(f) ^ 2);
      }
      h ^= inner;
    } else if (const auto* l = std::get_if<ListValue>(&value)) {
      uint64_t seq = h ^ 3;
      for (const std::string& item : *l) {
        seq = Fnv1aHash(item, seq);
      }
      h = seq;
    } else if (const auto* set = std::get_if<SetValue>(&value)) {
      uint64_t inner = 0;
      for (const std::string& member : *set) {
        inner ^= Fnv1aHash(member, h ^ 4);  // order-insensitive within the set
      }
      h ^= inner;
    }
    digest ^= h;  // order-insensitive across keys
  }
  return digest;
}

namespace {

enum class ValueTag : uint8_t { kString = 0, kHash = 1, kList = 2, kSet = 3 };

// With `limit`, a list is cut to its first `limit` items (the frozen part of
// a list that only grew since).
void SerializeEntry(BufferWriter& out, const std::string& key, const KvStore::Value& value,
                    size_t limit = SIZE_MAX) {
  out.PutString(key);
  if (const auto* s = std::get_if<KvStore::StringValue>(&value)) {
    out.PutU8(static_cast<uint8_t>(ValueTag::kString));
    out.PutString(*s);
  } else if (const auto* h = std::get_if<KvStore::HashValue>(&value)) {
    out.PutU8(static_cast<uint8_t>(ValueTag::kHash));
    out.PutU64(h->size());
    for (const auto& [field, v] : *h) {
      out.PutString(field);
      out.PutString(v);
    }
  } else if (const auto* l = std::get_if<KvStore::ListValue>(&value)) {
    out.PutU8(static_cast<uint8_t>(ValueTag::kList));
    const size_t n = std::min(l->size(), limit);
    out.PutU64(n);
    for (size_t i = 0; i < n; ++i) {
      out.PutString((*l)[i]);
    }
  } else if (const auto* set = std::get_if<KvStore::SetValue>(&value)) {
    out.PutU8(static_cast<uint8_t>(ValueTag::kSet));
    out.PutU64(set->size());
    for (const std::string& member : *set) {
      out.PutString(member);
    }
  }
}

Status DeserializeEntry(BufferReader& in, std::string& key, KvStore::Value& value) {
  uint8_t tag = 0;
  if (Status s = in.GetString(key); !s.ok()) {
    return s;
  }
  if (Status s = in.GetU8(tag); !s.ok()) {
    return s;
  }
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kString: {
      std::string v;
      if (Status s = in.GetString(v); !s.ok()) {
        return s;
      }
      value = std::move(v);
      return Status::Ok();
    }
    case ValueTag::kHash: {
      uint64_t n = 0;
      if (Status s = in.GetU64(n); !s.ok()) {
        return s;
      }
      KvStore::HashValue h;
      h.reserve(n);
      for (uint64_t j = 0; j < n; ++j) {
        std::string field;
        std::string v;
        if (Status s = in.GetString(field); !s.ok()) {
          return s;
        }
        if (Status s = in.GetString(v); !s.ok()) {
          return s;
        }
        h.emplace(std::move(field), std::move(v));
      }
      value = std::move(h);
      return Status::Ok();
    }
    case ValueTag::kList: {
      uint64_t n = 0;
      if (Status s = in.GetU64(n); !s.ok()) {
        return s;
      }
      KvStore::ListValue l;
      for (uint64_t j = 0; j < n; ++j) {
        std::string item;
        if (Status s = in.GetString(item); !s.ok()) {
          return s;
        }
        l.push_back(std::move(item));
      }
      value = std::move(l);
      return Status::Ok();
    }
    case ValueTag::kSet: {
      uint64_t n = 0;
      if (Status s = in.GetU64(n); !s.ok()) {
        return s;
      }
      KvStore::SetValue set;
      set.reserve(n);
      for (uint64_t j = 0; j < n; ++j) {
        std::string member;
        if (Status s = in.GetString(member); !s.ok()) {
          return s;
        }
        set.insert(std::move(member));
      }
      value = std::move(set);
      return Status::Ok();
    }
    default:
      return InvalidArgumentError("unknown kv value tag");
  }
}

}  // namespace

void KvStore::SerializeTo(BufferWriter& out) const {
  out.PutU64(map_.size());
  for (const auto& [key, value] : map_) {
    SerializeEntry(out, key, value);
  }
}

Status KvStore::DeserializeFrom(BufferReader& in) {
  uint64_t count = 0;
  if (Status s = in.GetU64(count); !s.ok()) {
    return s;
  }
  decltype(map_) fresh;
  fresh.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    Value value;
    if (Status s = DeserializeEntry(in, key, value); !s.ok()) {
      return s;
    }
    fresh.insert_or_assign(std::move(key), std::move(value));
  }
  ReplaceMap(std::move(fresh));
  entry_bytes_ = 0;
  for (const auto& [key, value] : map_) {
    entry_bytes_ += EntryBytes(key, value);
  }
  return Status::Ok();
}

void KvStore::SerializePartTo(BufferWriter& out, const KeyPredicate& pred) const {
  uint64_t matched = 0;
  for (const auto& [key, value] : map_) {
    if (pred(key)) {
      ++matched;
    }
  }
  out.PutU64(matched);
  for (const auto& [key, value] : map_) {
    if (pred(key)) {
      SerializeEntry(out, key, value);
    }
  }
}

Status KvStore::MergeFrom(BufferReader& in) {
  uint64_t count = 0;
  if (Status s = in.GetU64(count); !s.ok()) {
    return s;
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    Value value;
    if (Status s = DeserializeEntry(in, key, value); !s.ok()) {
      return s;
    }
    entry_bytes_ += EntryBytes(key, value);
    if (Elem* old = FindElem(key); old != nullptr) {
      entry_bytes_ -= EntryBytes(old->first, old->second);
      Preserve(*old);
      old->second = std::move(value);
    } else {
      Insert(key, std::move(value));
    }
  }
  return Status::Ok();
}

size_t KvStore::EraseIf(const KeyPredicate& pred) {
  size_t erased = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (pred(it->first)) {
      entry_bytes_ -= EntryBytes(it->first, it->second);
      PreserveErased(*it);
      BeforeReshape();  // records the order as it was: the erases so far kept it
      it = map_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

// --- Freeze ------------------------------------------------------------------

KvStore::KvStore(KvStore&& other) noexcept
    : map_(std::move(other.map_)), entry_bytes_(other.entry_bytes_) {
  HC_CHECK(other.freeze_ == nullptr);  // the freeze points into the moved map
  other.map_.clear();
  other.entry_bytes_ = 0;
}

KvStore& KvStore::operator=(KvStore other) {
  ReplaceMap(std::move(other.map_));
  entry_bytes_ = other.entry_bytes_;
  return *this;
}

void KvStore::ReplaceMap(Map fresh) {
  if (freeze_ != nullptr && !freeze_->retired_) {
    // The old map holds the frozen elements the undo log never saved. It is
    // not changed again, so nothing the new contents do concerns the freeze.
    freeze_->retired_map_ = std::move(map_);
    freeze_->retired_ = true;
  }
  map_ = std::move(fresh);
}

KvStore::~KvStore() {
  if (freeze_ != nullptr) {
    freeze_->store_ = nullptr;
  }
}

std::unique_ptr<KvStore::Frozen> KvStore::Freeze() {
  HC_CHECK(freeze_ == nullptr);  // at most one live freeze
  std::unique_ptr<Frozen> frozen(new Frozen(this));
  freeze_ = frozen.get();
  return frozen;
}

KvStore::Frozen::Frozen(KvStore* store)
    : store_(store), count_(store->map_.size()), size_(store->SerializedSize()) {}

KvStore::Frozen::~Frozen() {
  if (store_ != nullptr) {
    store_->freeze_ = nullptr;
  }
}

void KvStore::Frozen::Save(const Elem& e, Value value) {
  Undo& undo = undo_[&e];
  if (undo.prefix != Undo::kWhole) {
    // Only appends happened since the freeze: drop them.
    std::get<ListValue>(value).resize(undo.prefix);
  }
  undo.saved = std::make_unique<const Elem>(e.first, std::move(value));
}

void KvStore::Preserve(const Elem& e) {
  if (freeze_ == nullptr) {
    return;
  }
  const auto it = freeze_->undo_.find(&e);
  if (it == freeze_->undo_.end() || it->second.saved == nullptr) {
    // A copy of an unordered container iterates in the source's order
    // (libstdc++ copies node by node), so the saved value serializes as the
    // frozen one did; kvstore_test's freeze fuzz test pins that.
    freeze_->Save(e, e.second);
  }
}

void KvStore::PreserveAppend(const Elem& e) {
  if (freeze_ == nullptr) {
    return;
  }
  const auto [it, first] = freeze_->undo_.try_emplace(&e);
  if (first) {
    it->second.prefix = std::get<ListValue>(e.second).size();
  }
}

void KvStore::PreserveErased(Elem& e) {
  if (freeze_ == nullptr) {
    return;
  }
  const auto it = freeze_->undo_.find(&e);
  if (it == freeze_->undo_.end() || it->second.saved == nullptr) {
    freeze_->Save(e, std::move(e.second));  // the element is about to go
  }
}

void KvStore::BeforeReshape() {
  if (freeze_ == nullptr || freeze_->ordered_ || freeze_->retired_) {
    return;
  }
  freeze_->order_.reserve(map_.size());
  for (const Elem& e : map_) {
    freeze_->order_.push_back(&e);
  }
  freeze_->ordered_ = true;
}

void KvStore::Frozen::WriteTo(BufferWriter* w) const {
  HC_CHECK(store_ != nullptr);  // the unsaved elements died with the store
  const size_t start = w->size();
  w->PutU64(count_);
  auto put = [this, w](const Elem* e) {
    const auto it = undo_.find(e);
    if (it == undo_.end()) {
      SerializeEntry(*w, e->first, e->second);
    } else if (it->second.saved != nullptr) {
      SerializeEntry(*w, it->second.saved->first, it->second.saved->second);
    } else {
      SerializeEntry(*w, e->first, e->second, it->second.prefix);
    }
  };
  if (ordered_) {
    for (const Elem* e : order_) {
      put(e);
    }
  } else {
    for (const Elem& e : retired_ ? retired_map_ : store_->map_) {
      put(&e);
    }
  }
  HC_CHECK_EQ(w->size() - start, size_);
}

}  // namespace hovercraft
