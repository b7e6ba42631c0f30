#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/app/kvstore/command.h"
#include "src/app/kvstore/service.h"
#include "src/app/kvstore/store.h"
#include "src/common/frozen_image.h"
#include "src/r2p2/shard.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// KvStore data structures
// ---------------------------------------------------------------------------

TEST(KvStoreTest, StringSetGetDel) {
  KvStore store;
  store.Set("k", "v1");
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_EQ(store.Get("k").value(), "v1");
  store.Set("k", "v2");  // overwrite
  EXPECT_EQ(store.Get("k").value(), "v2");
  EXPECT_TRUE(store.Del("k"));
  EXPECT_FALSE(store.Del("k"));
  EXPECT_EQ(store.Get("k").status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, HashOperations) {
  KvStore store;
  ASSERT_TRUE(store.Hset("h", "f1", "a").ok());
  ASSERT_TRUE(store.Hset("h", "f2", "b").ok());
  ASSERT_TRUE(store.Hset("h", "f1", "c").ok());
  EXPECT_EQ(store.Hget("h", "f1").value(), "c");
  EXPECT_EQ(store.Hget("h", "f2").value(), "b");
  EXPECT_EQ(store.Hget("h", "nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Hget("missing", "f").status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, WrongTypeErrors) {
  KvStore store;
  store.Set("s", "x");
  EXPECT_EQ(store.Hset("s", "f", "v").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Hget("s", "f").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(store.Rpush("s", "v").ok());
  EXPECT_FALSE(store.Lrange("s", 0, -1).ok());
  ASSERT_TRUE(store.Hset("h", "f", "v").ok());
  EXPECT_EQ(store.Get("h").status().code(), StatusCode::kFailedPrecondition);
}

TEST(KvStoreTest, ListPushAndRange) {
  KvStore store;
  EXPECT_EQ(store.Rpush("l", "a").value(), 1u);
  EXPECT_EQ(store.Rpush("l", "b").value(), 2u);
  EXPECT_EQ(store.Rpush("l", "c").value(), 3u);
  EXPECT_EQ(store.Lrange("l", 0, -1).value(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(store.Lrange("l", 1, 1).value(), (std::vector<std::string>{"b"}));
  EXPECT_EQ(store.Lrange("l", -2, -1).value(), (std::vector<std::string>{"b", "c"}));
  EXPECT_TRUE(store.Lrange("l", 5, 9).value().empty());
}

TEST(KvStoreTest, ScanTailNewestFirst) {
  KvStore store;
  for (const char* v : {"p1", "p2", "p3", "p4"}) {
    ASSERT_TRUE(store.Rpush("conv", v).ok());
  }
  EXPECT_EQ(store.ScanTail("conv", 2).value(), (std::vector<std::string>{"p4", "p3"}));
  EXPECT_EQ(store.ScanTail("conv", 10).value(),
            (std::vector<std::string>{"p4", "p3", "p2", "p1"}));
  EXPECT_EQ(store.ScanTail("conv", 0).value().size(), 0u);
  EXPECT_EQ(store.ScanTail("missing", 3).status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, ContentDigestDetectsDifferences) {
  KvStore a;
  KvStore b;
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
  a.Set("k", "v");
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
  b.Set("k", "v");
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
  // List order matters.
  a.Rpush("l", "1");
  a.Rpush("l", "2");
  b.Rpush("l", "2");
  b.Rpush("l", "1");
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(KvStoreTest, DigestInsensitiveToKeyInsertionOrder) {
  KvStore a;
  KvStore b;
  a.Set("x", "1");
  a.Set("y", "2");
  b.Set("y", "2");
  b.Set("x", "1");
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
}

// ---------------------------------------------------------------------------
// Command codec
// ---------------------------------------------------------------------------

TEST(KvCommandTest, RoundTripAllOpcodes) {
  std::vector<KvCommand> commands;
  {
    KvCommand c;
    c.op = KvOpcode::kSet;
    c.key = "k";
    c.value = "v";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kGet;
    c.key = "k";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kDel;
    c.key = "k";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kHset;
    c.key = "h";
    c.field = "f";
    c.value = "v";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kHget;
    c.key = "h";
    c.field = "f";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kRpush;
    c.key = "l";
    c.value = "item";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kLrange;
    c.key = "l";
    c.range_start = -5;
    c.range_stop = -1;
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kYInsert;
    c.key = "conv:1";
    c.value = std::string(1000, 'x');
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kYScan;
    c.key = "conv:1";
    c.scan_limit = 10;
    commands.push_back(c);
  }

  for (const KvCommand& cmd : commands) {
    Body body = EncodeKvCommand(cmd);
    Result<KvCommand> decoded = DecodeKvCommand(body);
    ASSERT_TRUE(decoded.ok());
    const KvCommand& d = decoded.value();
    EXPECT_EQ(d.op, cmd.op);
    EXPECT_EQ(d.key, cmd.key);
    EXPECT_EQ(d.field, cmd.field);
    EXPECT_EQ(d.value, cmd.value);
    EXPECT_EQ(d.range_start, cmd.range_start);
    EXPECT_EQ(d.range_stop, cmd.range_stop);
    EXPECT_EQ(d.scan_limit, cmd.scan_limit);
  }
}

TEST(KvCommandTest, ReadOnlyClassification) {
  KvCommand c;
  c.op = KvOpcode::kGet;
  EXPECT_TRUE(c.IsReadOnly());
  c.op = KvOpcode::kYScan;
  EXPECT_TRUE(c.IsReadOnly());
  c.op = KvOpcode::kLrange;
  EXPECT_TRUE(c.IsReadOnly());
  c.op = KvOpcode::kHget;
  EXPECT_TRUE(c.IsReadOnly());
  c.op = KvOpcode::kSet;
  EXPECT_FALSE(c.IsReadOnly());
  c.op = KvOpcode::kYInsert;
  EXPECT_FALSE(c.IsReadOnly());
}

TEST(KvCommandTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeKvCommand(nullptr).ok());
  EXPECT_FALSE(DecodeKvCommand(MakeBody({})).ok());
  EXPECT_FALSE(DecodeKvCommand(MakeBody({0xFF, 0x01})).ok());
}

TEST(KvReplyTest, RoundTrip) {
  KvReply reply;
  reply.status = KvReplyStatus::kOk;
  reply.values = {"a", "", "ccc"};
  Result<KvReply> decoded = DecodeKvReply(EncodeKvReply(reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status, KvReplyStatus::kOk);
  EXPECT_EQ(decoded.value().values, reply.values);
}

// ---------------------------------------------------------------------------
// KvService (StateMachine adapter + cost model)
// ---------------------------------------------------------------------------

RpcRequest MakeKvRequest(const KvCommand& cmd, uint64_t seq) {
  return RpcRequest(RequestId{1, seq},
                    cmd.IsReadOnly() ? R2p2Policy::kReplicatedReqRo : R2p2Policy::kReplicatedReq,
                    EncodeKvCommand(cmd));
}

TEST(KvServiceTest, ExecuteMutatesAndReplies) {
  KvService svc;
  KvCommand set;
  set.op = KvOpcode::kSet;
  set.key = "k";
  set.value = "hello";
  ExecResult r = svc.Execute(MakeKvRequest(set, 1));
  EXPECT_GT(r.service_time, 0);
  EXPECT_EQ(svc.ApplyCount(), 1u);

  KvCommand get;
  get.op = KvOpcode::kGet;
  get.key = "k";
  ExecResult g = svc.Execute(MakeKvRequest(get, 2));
  Result<KvReply> reply = DecodeKvReply(g.reply);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().status, KvReplyStatus::kOk);
  ASSERT_EQ(reply.value().values.size(), 1u);
  EXPECT_EQ(reply.value().values[0], "hello");
  // Read did not change the apply count.
  EXPECT_EQ(svc.ApplyCount(), 1u);
}

TEST(KvServiceTest, InsertCostsMoreThanScan) {
  // The Amdahl shape of Figure 13 depends on INSERT being the expensive,
  // serial (executed-everywhere) operation.
  KvService svc;
  KvCommand insert;
  insert.op = KvOpcode::kYInsert;
  insert.key = "conv:1";
  insert.value = std::string(1000, 'r');
  TimeNs insert_cost = 0;
  svc.Apply(insert, &insert_cost);
  for (int i = 0; i < 20; ++i) {
    svc.Apply(insert);
  }

  KvCommand scan;
  scan.op = KvOpcode::kYScan;
  scan.key = "conv:1";
  scan.scan_limit = 10;
  TimeNs scan_cost = 0;
  KvReply reply = svc.Apply(scan, &scan_cost);
  EXPECT_EQ(reply.values.size(), 10u);
  EXPECT_GT(insert_cost, scan_cost);
  EXPECT_GT(scan_cost, Micros(5));
}

TEST(KvServiceTest, DigestTracksDivergence) {
  KvService a;
  KvService b;
  KvCommand set;
  set.op = KvOpcode::kSet;
  set.key = "k";
  set.value = "v";
  a.Execute(MakeKvRequest(set, 1));
  b.Execute(MakeKvRequest(set, 1));
  EXPECT_EQ(a.Digest(), b.Digest());
  set.value = "other";
  b.Execute(MakeKvRequest(set, 2));
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(KvServiceTest, ScanOnMissingThreadIsNotFoundButCheap) {
  KvService svc;
  KvCommand scan;
  scan.op = KvOpcode::kYScan;
  scan.key = "conv:404";
  scan.scan_limit = 10;
  TimeNs cost = 0;
  KvReply reply = svc.Apply(scan, &cost);
  EXPECT_EQ(reply.status, KvReplyStatus::kNotFound);
  EXPECT_LT(cost, Micros(10));
}

}  // namespace
}  // namespace hovercraft

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Extended command surface (counters, string ops, sets)
// ---------------------------------------------------------------------------

TEST(KvStoreExtTest, IncrCreatesAndCounts) {
  KvStore store;
  EXPECT_EQ(store.Incr("n").value(), 1);
  EXPECT_EQ(store.Incr("n").value(), 2);
  EXPECT_EQ(store.Incr("n").value(), 3);
  EXPECT_EQ(store.Get("n").value(), "3");
  store.Set("s", "not-a-number");
  EXPECT_FALSE(store.Incr("s").ok());
  store.Rpush("l", "x");
  EXPECT_FALSE(store.Incr("l").ok());
}

TEST(KvStoreExtTest, AppendGrowsString) {
  KvStore store;
  EXPECT_EQ(store.Append("k", "foo").value(), 3u);
  EXPECT_EQ(store.Append("k", "bar").value(), 6u);
  EXPECT_EQ(store.Get("k").value(), "foobar");
}

TEST(KvStoreExtTest, SetnxOnlyFirstWins) {
  KvStore store;
  EXPECT_TRUE(store.Setnx("k", "first").value());
  EXPECT_FALSE(store.Setnx("k", "second").value());
  EXPECT_EQ(store.Get("k").value(), "first");
}

TEST(KvStoreExtTest, HdelRemovesField) {
  KvStore store;
  ASSERT_TRUE(store.Hset("h", "f", "v").ok());
  EXPECT_TRUE(store.Hdel("h", "f").value());
  EXPECT_FALSE(store.Hdel("h", "f").value());
  EXPECT_EQ(store.Hget("h", "f").status().code(), StatusCode::kNotFound);
}

TEST(KvStoreExtTest, LpopAndLlen) {
  KvStore store;
  store.Rpush("l", "a");
  store.Rpush("l", "b");
  EXPECT_EQ(store.Llen("l").value(), 2u);
  EXPECT_EQ(store.Lpop("l").value(), "a");
  EXPECT_EQ(store.Lpop("l").value(), "b");
  EXPECT_EQ(store.Lpop("l").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Llen("missing").value(), 0u);
}

TEST(KvStoreExtTest, SetOperations) {
  KvStore store;
  EXPECT_TRUE(store.Sadd("s", "a").value());
  EXPECT_TRUE(store.Sadd("s", "b").value());
  EXPECT_FALSE(store.Sadd("s", "a").value());  // duplicate
  EXPECT_EQ(store.Scard("s").value(), 2u);
  EXPECT_TRUE(store.Sismember("s", "a").value());
  EXPECT_FALSE(store.Sismember("s", "z").value());
  EXPECT_TRUE(store.Srem("s", "a").value());
  EXPECT_FALSE(store.Srem("s", "a").value());
  EXPECT_EQ(store.Scard("s").value(), 1u);
  EXPECT_FALSE(store.Sismember("missing", "x").value());
  EXPECT_EQ(store.Scard("missing").value(), 0u);
}

TEST(KvStoreExtTest, SetsInDigestAndSnapshot) {
  KvStore a;
  a.Sadd("s", "m1");
  a.Sadd("s", "m2");
  KvStore b;
  b.Sadd("s", "m2");
  b.Sadd("s", "m1");
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());  // insertion order irrelevant

  BufferWriter w;
  a.SerializeTo(w);
  KvStore c;
  BufferReader r(w.bytes());
  ASSERT_TRUE(c.DeserializeFrom(r).ok());
  EXPECT_EQ(c.ContentDigest(), a.ContentDigest());
  EXPECT_TRUE(c.Sismember("s", "m1").value());
}

// One random mutator call on `store`: a small key pool shared by all value
// types, so keys are replaced, deleted, popped empty and hit with the wrong
// type; values are sometimes decimal so Incr succeeds on existing keys.
void RandomMutation(KvStore& store, std::mt19937_64& rng) {
  const std::string key = "k" + std::to_string(rng() % 20);
  const std::string field = "f" + std::to_string(rng() % 4);
  const size_t len = rng() % 50;
  const auto letter = static_cast<char>('a' + rng() % 26);
  const std::string value = rng() % 4 == 0 ? std::to_string(rng() % 1000) : std::string(len, letter);
  switch (rng() % 11) {
    case 0: store.Set(key, value); break;
    case 1: store.Del(key); break;
    case 2: (void)store.Incr(key); break;
    case 3: (void)store.Append(key, value); break;
    case 4: (void)store.Setnx(key, value); break;
    case 5: (void)store.Hset(key, field, value); break;
    case 6: (void)store.Hdel(key, field); break;
    case 7: (void)store.Rpush(key, value); break;
    case 8: (void)store.Lpop(key); break;
    case 9: (void)store.Sadd(key, value.substr(0, 2)); break;
    default: (void)store.Srem(key, value.substr(0, 2)); break;
  }
}

size_t SerializedLength(const KvStore& store) {
  BufferWriter w;
  store.SerializeTo(w);
  return w.size();
}

TEST(KvStoreExtTest, SerializedSizeTracksEveryMutation) {
  // The running counter behind SerializedSize() must equal the SerializeTo
  // length after every step of a seeded mix of every mutator plus the bulk
  // operations: DeserializeFrom, MergeFrom, EraseIf and KvService::DropRange.
  std::mt19937_64 rng(1403);
  KvService svc;
  KvStore& store = svc.store();
  KvStore other;
  ASSERT_EQ(store.SerializedSize(), SerializedLength(store));
  for (int step = 0; step < 20000; ++step) {
    const uint64_t pick = rng() % 100;
    if (pick < 85) {
      RandomMutation(store, rng);
    } else if (pick < 95) {
      RandomMutation(other, rng);
      ASSERT_EQ(other.SerializedSize(), SerializedLength(other)) << "step " << step;
    } else if (pick < 96) {
      BufferWriter w;
      other.SerializeTo(w);
      BufferReader r(w.bytes());
      ASSERT_TRUE(store.DeserializeFrom(r).ok());
    } else if (pick < 97) {
      const uint64_t parity = rng() % 2;
      BufferWriter w;
      other.SerializePartTo(w, [parity](std::string_view key) { return key.size() % 2 == parity; });
      BufferReader r(w.bytes());
      ASSERT_TRUE(store.MergeFrom(r).ok());
    } else if (pick < 98) {
      const char last = static_cast<char>('0' + rng() % 10);
      store.EraseIf([last](std::string_view key) { return key.back() == last; });
    } else {
      const uint32_t lo = static_cast<uint32_t>(rng() % kShardSlots);
      const uint32_t hi = lo + static_cast<uint32_t>(rng() % (kShardSlots - lo));
      ASSERT_TRUE(svc.DropRange(lo, hi).ok());
    }
    ASSERT_EQ(store.SerializedSize(), SerializedLength(store)) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Freeze: a frozen image is the capture-time image byte for byte, whatever
// runs after the capture (KvStore::Freeze, KvService::Freeze).
// ---------------------------------------------------------------------------

// One random mutator call on a key pool split by value type ("s", "h", "l"
// and "t" keys): each mutator mostly meets keys of the type it changes, one
// call in five meets another type, and Del meets all of them.
void TypedMutation(KvStore& store, std::mt19937_64& rng) {
  static constexpr char kTypes[] = {'s', 'h', 'l', 't'};
  const uint64_t op = rng() % 11;
  char type = op <= 4 ? 's' : op <= 6 ? 'h' : op <= 8 ? 'l' : 't';
  if (op == 1 || rng() % 5 == 0) {
    type = kTypes[rng() % 4];
  }
  const std::string key = std::string(1, type) + std::to_string(rng() % 6);
  const std::string field = "f" + std::to_string(rng() % 4);
  const auto letter = static_cast<char>('a' + rng() % 26);
  const std::string value =
      rng() % 4 == 0 ? std::to_string(rng() % 1000) : std::string(rng() % 50, letter);
  switch (op) {
    case 0: store.Set(key, value); break;
    case 1: store.Del(key); break;
    case 2: (void)store.Incr(key); break;
    case 3: (void)store.Append(key, value); break;
    case 4: (void)store.Setnx(key, value); break;
    case 5: (void)store.Hset(key, field, value); break;
    case 6: (void)store.Hdel(key, field); break;
    case 7: (void)store.Rpush(key, value); break;
    case 8: (void)store.Lpop(key); break;
    case 9: (void)store.Sadd(key, value.substr(0, 2)); break;
    default: (void)store.Srem(key, value.substr(0, 2)); break;
  }
}

template <typename Image>
std::vector<uint8_t> Materialize(const Image& image) {
  BufferWriter w;
  image.WriteTo(&w);
  EXPECT_EQ(w.size(), image.size());
  return w.TakeBytes();
}

// The app's SnapshotBody, as bytes.
std::vector<uint8_t> ImageOf(const StateMachine& app) {
  const Body image = SnapshotBody(app);
  return std::vector<uint8_t>(image.begin(), image.end());
}

std::vector<uint8_t> Serialized(const KvStore& store) {
  BufferWriter w;
  store.SerializeTo(w);
  return w.TakeBytes();
}

TEST(KvFreezeTest, FrozenImageEqualsCaptureUnderRandomMutations) {
  // A seeded mix of every mutator, writes through Execute (which move the
  // apply count and the mutation digest), MergeFrom, EraseIf and DropRange
  // over a small key pool, so frozen keys are rewritten, appended to,
  // erased, re-inserted and reordered. A fresh freeze is taken every 3000
  // steps, and its image is compared with the SnapshotBody taken at the
  // capture every 100 steps. DeserializeFrom hands every frozen element to
  // the freeze, after which no hook matters any more, so it runs only in
  // every other window.
  std::mt19937_64 rng(1601);
  KvService svc;
  KvStore& store = svc.store();
  KvStore other;
  for (int i = 0; i < 400; ++i) {
    TypedMutation(store, rng);
    TypedMutation(other, rng);
  }
  constexpr int kSteps = 24000;
  constexpr int kWindow = 3000;
  std::unique_ptr<FrozenImage> frozen;
  std::vector<uint8_t> want;
  int replaced = 0;
  for (int step = 0; step < kSteps; ++step) {
    if (step % kWindow == 0) {
      frozen.reset();  // ends the last freeze; the store allows the next
      frozen = svc.Freeze();
      want = ImageOf(svc);
      ASSERT_EQ(frozen->size(), want.size());
    }
    const bool may_replace = (step / kWindow) % 2 == 1;
    const uint64_t pick = rng() % 1000;
    if (pick < 750) {
      TypedMutation(store, rng);
    } else if (pick < 850) {
      KvCommand cmd;
      cmd.op = rng() % 2 == 0 ? KvOpcode::kSet : KvOpcode::kRpush;
      cmd.key = (cmd.op == KvOpcode::kSet ? "s" : "l") + std::to_string(rng() % 6);
      cmd.value = std::string(rng() % 30, 'x');
      svc.Execute(RpcRequest(RequestId{3, static_cast<uint64_t>(step)},
                             R2p2Policy::kReplicatedReq, EncodeKvCommand(cmd)));
    } else if (pick < 940) {
      TypedMutation(other, rng);
    } else if (pick < 942) {
      if (may_replace) {
        BufferWriter w;
        other.SerializeTo(w);
        BufferReader r(w.bytes());
        ASSERT_TRUE(store.DeserializeFrom(r).ok());
        ++replaced;
      }
    } else if (pick < 970) {
      const uint64_t parity = rng() % 2;
      BufferWriter w;
      other.SerializePartTo(w, [parity](std::string_view key) { return key.size() % 2 == parity; });
      BufferReader r(w.bytes());
      ASSERT_TRUE(store.MergeFrom(r).ok());
    } else if (pick < 985) {
      const char last = static_cast<char>('0' + rng() % 6);
      store.EraseIf([last](std::string_view key) { return key.back() == last; });
    } else {
      const uint32_t lo = static_cast<uint32_t>(rng() % kShardSlots);
      const uint32_t hi = lo + static_cast<uint32_t>(rng() % (kShardSlots - lo));
      ASSERT_TRUE(svc.DropRange(lo, hi).ok());
    }
    if (step % 100 == 99) {
      ASSERT_EQ(Materialize(*frozen), want) << "step " << step;
    }
  }
  EXPECT_GT(replaced, 10);
  // A fresh freeze of the mutated store images its current state.
  frozen.reset();
  EXPECT_EQ(Materialize(*svc.Freeze()), ImageOf(svc));
}

TEST(KvFreezeTest, ErasedKeyWhoseNodeIsReusedKeepsItsFrozenValue) {
  // Erasing a frozen key frees its node; the allocator typically hands the
  // same memory straight back to the next insert, here of a new key and of
  // the erased key again. Neither may pass for the frozen element.
  KvStore store;
  for (int i = 0; i < 8; ++i) {
    store.Set("k" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(store.Rpush("list", "a").ok());
  const std::vector<uint8_t> want = Serialized(store);
  std::unique_ptr<KvStore::Frozen> frozen = store.Freeze();
  EXPECT_TRUE(store.Del("k3"));
  store.Set("new", "x");
  store.Set("new", "y");
  ASSERT_TRUE(store.Append("new", "z").ok());
  EXPECT_TRUE(store.Del("new"));
  store.Set("k3", "again");
  ASSERT_TRUE(store.Append("k3", "!").ok());
  EXPECT_TRUE(store.Del("list"));
  ASSERT_TRUE(store.Rpush("list", "b").ok());
  ASSERT_TRUE(store.Rpush("list2", "c").ok());
  EXPECT_EQ(Materialize(*frozen), want);
  EXPECT_EQ(store.Get("k3").value(), "again!");
}

TEST(KvFreezeTest, EveryMutatorSavesItsKeyOnFirstTouch) {
  // One key per mutator, each holding the type that mutator changes; after
  // the freeze each is mutated twice, so the second touch must not
  // overwrite the saved prior value.
  KvStore store;
  store.Set("set", "s");
  store.Set("del", "d");
  store.Set("incr", "41");
  store.Set("append", "a");
  store.Set("setnx", "n");
  ASSERT_TRUE(store.Hset("hset", "f", "1").ok());
  ASSERT_TRUE(store.Hset("hdel", "f", "1").ok());
  ASSERT_TRUE(store.Hset("hdel", "g", "2").ok());
  ASSERT_TRUE(store.Rpush("rpush", "1").ok());
  ASSERT_TRUE(store.Rpush("lpop", "1").ok());
  ASSERT_TRUE(store.Rpush("lpop", "2").ok());
  ASSERT_TRUE(store.Rpush("lpop", "3").ok());
  ASSERT_TRUE(store.Sadd("sadd", "m").ok());
  ASSERT_TRUE(store.Sadd("srem", "m").ok());
  ASSERT_TRUE(store.Sadd("srem", "n").ok());
  const std::vector<uint8_t> want = Serialized(store);
  std::unique_ptr<KvStore::Frozen> frozen = store.Freeze();
  for (int round = 0; round < 2; ++round) {
    const std::string v = "r" + std::to_string(round);
    store.Set("set", v);
    store.Del("del");
    ASSERT_TRUE(store.Incr("incr").ok());
    ASSERT_TRUE(store.Append("append", v).ok());
    EXPECT_FALSE(store.Setnx("setnx", v).value());
    ASSERT_TRUE(store.Hset("hset", "f", v).ok());
    ASSERT_TRUE(store.Hdel("hdel", round == 0 ? "f" : "g").ok());
    ASSERT_TRUE(store.Rpush("rpush", v).ok());
    ASSERT_TRUE(store.Lpop("lpop").ok());
    ASSERT_TRUE(store.Sadd("sadd", v).ok());
    ASSERT_TRUE(store.Srem("srem", round == 0 ? "m" : "n").ok());
    ASSERT_EQ(Materialize(*frozen), want) << "round " << round;
  }
}

TEST(KvFreezeTest, HandleAndStoreMayEachBeDestroyedFirst) {
  {
    KvStore store;
    store.Set("a", "1");
    std::unique_ptr<KvStore::Frozen> frozen = store.Freeze();
    frozen.reset();
    store.Set("a", "2");  // no live freeze: nothing is saved
    std::unique_ptr<KvStore::Frozen> next = store.Freeze();  // allowed again
    EXPECT_EQ(Materialize(*next), Serialized(store));
  }
  std::unique_ptr<KvStore::Frozen> orphan;
  {
    KvStore store;
    store.Set("a", "1");
    orphan = store.Freeze();
  }
  orphan.reset();  // destroying the handle after the store touches nothing
}

TEST(KvFreezeTest, CopiesAndAssignmentsLeaveTheFreezeIntact) {
  KvService svc;
  svc.store().Set("a", "1");
  ASSERT_TRUE(svc.store().Rpush("l", "x").ok());
  const std::vector<uint8_t> want = ImageOf(svc);
  std::unique_ptr<FrozenImage> frozen = svc.Freeze();
  KvService copy = svc;  // the copy has no freeze of its own
  copy.store().Set("a", "copy");
  std::unique_ptr<FrozenImage> copy_frozen = copy.Freeze();
  KvStore replacement;
  replacement.Set("b", "2");
  svc.store() = replacement;  // the old contents go to the live freeze
  svc.store().Set("a", "3");
  EXPECT_EQ(Materialize(*frozen), want);
  EXPECT_EQ(Materialize(*copy_frozen), ImageOf(copy));
}

TEST(KvFreezeDeathTest, SecondLiveFreezeFails) {
  EXPECT_DEATH(
      {
        KvStore store;
        std::unique_ptr<KvStore::Frozen> first = store.Freeze();
        std::unique_ptr<KvStore::Frozen> second = store.Freeze();
      },
      "CHECK failed");
  EXPECT_DEATH(
      {
        KvService svc;
        std::unique_ptr<FrozenImage> first = svc.Freeze();
        std::unique_ptr<FrozenImage> second = svc.Freeze();
      },
      "CHECK failed");
}

TEST(KvFreezeDeathTest, WritingAFreezeAfterItsStoreIsGoneFails) {
  EXPECT_DEATH(
      {
        std::unique_ptr<FrozenImage> frozen;
        {
          KvService svc;
          svc.store().Set("a", "1");
          frozen = svc.Freeze();
        }
        (void)Materialize(*frozen);
      },
      "CHECK failed");
}

TEST(KvFreezeDeathTest, MovingFromAStoreWithALiveFreezeFails) {
  EXPECT_DEATH(
      {
        KvStore store;
        store.Set("a", "1");
        std::unique_ptr<KvStore::Frozen> frozen = store.Freeze();
        KvStore moved = std::move(store);
      },
      "CHECK failed");
}

TEST(KvCommandExtTest, NewOpcodesRoundTrip) {
  for (KvOpcode op : {KvOpcode::kIncr, KvOpcode::kAppend, KvOpcode::kSetnx, KvOpcode::kExists,
                      KvOpcode::kHdel, KvOpcode::kLpop, KvOpcode::kLlen, KvOpcode::kSadd,
                      KvOpcode::kSrem, KvOpcode::kSismember, KvOpcode::kScard}) {
    KvCommand cmd;
    cmd.op = op;
    cmd.key = "key";
    cmd.field = "field";
    cmd.value = "value";
    Result<KvCommand> decoded = DecodeKvCommand(EncodeKvCommand(cmd));
    ASSERT_TRUE(decoded.ok()) << static_cast<int>(op);
    EXPECT_EQ(decoded.value().op, op);
    EXPECT_EQ(decoded.value().key, "key");
  }
}

TEST(KvCommandExtTest, ReadOnlyClassificationForNewOps) {
  KvCommand c;
  for (KvOpcode op : {KvOpcode::kExists, KvOpcode::kLlen, KvOpcode::kSismember, KvOpcode::kScard}) {
    c.op = op;
    EXPECT_TRUE(c.IsReadOnly()) << static_cast<int>(op);
  }
  for (KvOpcode op : {KvOpcode::kIncr, KvOpcode::kAppend, KvOpcode::kSetnx, KvOpcode::kHdel,
                      KvOpcode::kLpop, KvOpcode::kSadd, KvOpcode::kSrem}) {
    c.op = op;
    EXPECT_FALSE(c.IsReadOnly()) << static_cast<int>(op);
  }
}

TEST(KvServiceExtTest, CounterThroughService) {
  KvService svc;
  KvCommand incr;
  incr.op = KvOpcode::kIncr;
  incr.key = "hits";
  KvReply r1 = svc.Apply(incr);
  KvReply r2 = svc.Apply(incr);
  EXPECT_EQ(r1.values[0], "1");
  EXPECT_EQ(r2.values[0], "2");

  KvCommand exists;
  exists.op = KvOpcode::kExists;
  exists.key = "hits";
  EXPECT_EQ(svc.Apply(exists).values[0], "1");
  exists.key = "nope";
  EXPECT_EQ(svc.Apply(exists).values[0], "0");
}

}  // namespace
}  // namespace hovercraft
