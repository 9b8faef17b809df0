#include "aeris/serving/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "aeris/serving/types.hpp"

namespace aeris::serving::wire {
namespace {

Tensor filled(Shape shape, std::uint64_t key) {
  Philox rng(17);
  Tensor t(std::move(shape));
  rng.fill_normal(t, 3, key);
  return t;
}

void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

void push_u32(std::vector<float>& out, std::uint32_t v) {
  float lane;
  std::memcpy(&lane, &v, sizeof(v));
  out.push_back(lane);
}

void push_u64(std::vector<float>& out, std::uint64_t v) {
  push_u32(out, static_cast<std::uint32_t>(v));
  push_u32(out, static_cast<std::uint32_t>(v >> 32));
}

// Runs `decode` on a forged payload: it must fail with the decoder's own
// "wire: ..." runtime_error, never bad_alloc, length_error or a misread.
template <typename Decode>
void expect_wire_error(Decode decode, const std::string& what) {
  try {
    decode();
    ADD_FAILURE() << what << ": decoded a forged payload";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("wire:", 0), 0u)
        << what << ": " << e.what();
  }
}

TEST(Wire, PackRoundTripIsExact) {
  const std::int64_t h = 4, w = 6, v = 3, f = 2;
  std::vector<Tensor> prev{filled({h, w, v}, 0), filled({h, w, v}, 1)};
  std::vector<Tensor> forc{filled({h, w, f}, 2), filled({h, w, f}, 3)};
  std::vector<core::MemberSlot> slots(2);
  for (int i = 0; i < 2; ++i) {
    slots[static_cast<std::size_t>(i)].prev =
        &prev[static_cast<std::size_t>(i)];
    slots[static_cast<std::size_t>(i)].forcings =
        &forc[static_cast<std::size_t>(i)];
    // High-entropy keys: bit-cast lanes must survive exactly, including
    // patterns that are NaN / denormal as floats.
    slots[static_cast<std::size_t>(i)].noise = core::MemberKey{
        0xFFFFFFFFFFFFFFFFull - static_cast<std::uint64_t>(i),
        0x7FF0000000000001ull + static_cast<std::uint64_t>(i)};
  }

  const std::uint64_t pack_id = 0x8000000000000001ull;
  // Model id stresses the bit-cast lane too: 0xFFC00000 is a NaN as float.
  const std::uint32_t model = 0xFFC00000u;
  const std::vector<float> payload =
      encode_pack(pack_id, model, core::SamplerKind::kConsistency, 5,
                  std::span<const core::MemberSlot>(slots), h, w, v, f);
  const PackMsg msg = decode_pack(payload);

  EXPECT_EQ(kind_of(payload), Kind::kPack);
  EXPECT_EQ(msg.pack_id, pack_id);
  EXPECT_EQ(msg.model, model);
  EXPECT_EQ(msg.kind, core::SamplerKind::kConsistency);
  EXPECT_EQ(msg.solver_steps_override, 5);
  ASSERT_EQ(msg.prev.size(), 2u);
  ASSERT_EQ(msg.forcings.size(), 2u);
  ASSERT_EQ(msg.noise.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(msg.noise[i].seed, slots[i].noise.seed);
    EXPECT_EQ(msg.noise[i].key, slots[i].noise.key);
    expect_bitwise(msg.prev[i], prev[i]);
    expect_bitwise(msg.forcings[i], forc[i]);
  }
}

TEST(Wire, ShutdownPackDecodes) {
  const std::vector<float> bye = encode_shutdown();
  EXPECT_EQ(bye.size(), 1u);
  EXPECT_EQ(kind_of(bye), Kind::kShutdown);
  EXPECT_EQ(kind_of(encode_heartbeat()), Kind::kHeartbeat);
  // A shutdown is not a pack: the pack decoder refuses its kind.
  EXPECT_THROW(decode_pack(bye), std::runtime_error);
}

TEST(Wire, ResultRoundTripIsExact) {
  std::vector<Tensor> next{filled({4, 6, 3}, 9), filled({4, 6, 3}, 10)};
  // Inject bit patterns a value round-trip would destroy.
  next[0].data()[0] = std::numeric_limits<float>::quiet_NaN();
  next[0].data()[1] = -0.0f;
  const std::vector<float> payload =
      encode_result(77, std::span<const Tensor>(next));
  const ResultMsg msg = decode_result(payload);
  EXPECT_TRUE(msg.ok);
  EXPECT_EQ(msg.pack_id, 77u);
  ASSERT_EQ(msg.next.size(), 2u);
  expect_bitwise(msg.next[0], next[0]);
  expect_bitwise(msg.next[1], next[1]);
}

TEST(Wire, ErrorResultCarriesMessage) {
  const std::string why = "solver exploded: non-finite residual @ step 3";
  const ResultMsg msg = decode_result(encode_result_error(41, why));
  EXPECT_FALSE(msg.ok);
  EXPECT_EQ(msg.pack_id, 41u);
  EXPECT_EQ(msg.error, why);
  EXPECT_TRUE(msg.next.empty());
}

TEST(Wire, JoinLaneRoundTripsAllKinds) {
  // Extreme values: incarnations and fingerprints must survive the float
  // lanes bit-exactly (NaN-pattern payloads included).
  const std::uint64_t inc = 0xFFFFFFFFFFFFFFFFull;
  const std::uint64_t fp = 0x7FF8000000000001ull;  // NaN bit pattern

  const JoinMsg invite = decode_join(encode_invite(inc, fp));
  EXPECT_EQ(invite.kind, Kind::kInvite);
  EXPECT_EQ(invite.incarnation, inc);
  EXPECT_EQ(invite.fingerprint, fp);
  EXPECT_FALSE(invite.accept);

  const JoinMsg yes = decode_join(encode_verdict(inc, true));
  EXPECT_EQ(yes.kind, Kind::kVerdict);
  EXPECT_EQ(yes.incarnation, inc);
  EXPECT_TRUE(yes.accept);

  const JoinMsg no = decode_join(encode_verdict(3, false));
  EXPECT_EQ(no.kind, Kind::kVerdict);
  EXPECT_EQ(no.incarnation, 3u);
  EXPECT_FALSE(no.accept);

  // Shutdown shares the lane but is not a membership message.
  EXPECT_EQ(kind_of(encode_shutdown()), Kind::kShutdown);
  expect_wire_error([] { decode_join(encode_shutdown()); }, "join shutdown");

  EXPECT_THROW(decode_join(std::vector<float>(2, 0.0f)),
               std::runtime_error);
}

TEST(Wire, AnnounceRoundTripsFingerprint) {
  const JoinMsg ann =
      decode_join(encode_announce(42, 0xDEADBEEFCAFEF00Dull));
  EXPECT_EQ(ann.kind, Kind::kAnnounce);
  EXPECT_EQ(ann.incarnation, 42u);
  EXPECT_EQ(ann.fingerprint, 0xDEADBEEFCAFEF00Dull);
  EXPECT_THROW(decode_join(std::vector<float>(1, 0.0f)),
               std::runtime_error);
}

TEST(Wire, TruncatedPayloadThrowsInsteadOfMisreading) {
  std::vector<Tensor> next{filled({4, 6, 3}, 9)};
  std::vector<float> payload =
      encode_result(7, std::span<const Tensor>(next));
  payload.resize(payload.size() - 5);
  EXPECT_THROW(decode_result(payload), std::runtime_error);
  EXPECT_THROW(decode_pack(std::vector<float>(3, 0.0f)),
               std::runtime_error);
}

// Runs `decode` on a mutated payload: decoding is fine, and so is the
// decoder's own "wire: ..." runtime_error; anything else is a failure.
template <typename Decode>
void expect_decodes_or_wire_error(Decode decode, const std::string& what) {
  try {
    decode();
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("wire:", 0), 0u)
        << what << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": not a wire error: " << e.what();
  }
}

// Pack header: message kind, pack id, model, sampler, override, n_slots,
// h, w, v, f.
std::vector<float> pack_header(std::uint32_t n_slots, std::uint32_t h,
                               std::uint32_t w, std::uint32_t v,
                               std::uint32_t f) {
  std::vector<float> out;
  push_u32(out, static_cast<std::uint32_t>(Kind::kPack));
  push_u64(out, 1);
  for (const std::uint32_t lane : {0u, 0u, 0u, n_slots, h, w, v, f}) {
    push_u32(out, lane);
  }
  return out;
}

// Each forged header is a 0xFFFFFFFF count or dimension on a payload a
// few lanes long.
TEST(Wire, ForgedHeadersThrowWireError) {
  constexpr std::uint32_t kMax = 0xFFFFFFFFu;
  const std::vector<float> slots = pack_header(kMax, 2, 2, 1, 1);
  ASSERT_EQ(slots.size(), 11u);
  expect_wire_error([&] { decode_pack(slots); }, "n_slots");

  std::vector<float> shape = pack_header(1, kMax, kMax, kMax, 1);
  push_u64(shape, 3);  // noise seed
  push_u64(shape, 4);  // noise key
  expect_wire_error([&] { decode_pack(shape); }, "pack h*w*v");

  // Result payloads: message kind, pack id, ok flag, then the forged
  // lanes.
  auto result = [](std::uint32_t ok, std::vector<std::uint32_t> lanes) {
    std::vector<float> out;
    push_u32(out, static_cast<std::uint32_t>(Kind::kResult));
    push_u64(out, 1);
    push_u32(out, ok);
    for (const std::uint32_t lane : lanes) push_u32(out, lane);
    out.resize(11, 0.0f);
    return out;
  };
  expect_wire_error([&] { decode_result(result(1, {kMax})); },
                    "result count");
  expect_wire_error([&] { decode_result(result(1, {1, kMax, kMax, kMax})); },
                    "result h*w*v");
  expect_wire_error([&] { decode_result(result(0, {kMax})); },
                    "string length");
}

// A forged forcing extent is checked like the state extents: the pack's
// h*w*v fits, only h*w*f is impossible.
TEST(Wire, ForgedForcingExtentThrowsWireError) {
  std::vector<float> payload = pack_header(1, 2, 2, 1, 0xFFFFFFFFu);
  push_u64(payload, 3);  // noise seed
  push_u64(payload, 4);  // noise key
  for (int i = 0; i < 4; ++i) payload.push_back(1.0f);  // prev [2, 2, 1]
  expect_wire_error([&] { decode_pack(payload); }, "pack h*w*f");
}

// A shape whose element count fits 64 bits (2^32) but exceeds the lanes
// left must fail on the size test, not reach the allocation.
TEST(Wire, ShapeLargerThanPayloadThrowsWireError) {
  std::vector<float> pack = pack_header(1, 65536, 65536, 1, 1);
  push_u64(pack, 3);
  push_u64(pack, 4);
  pack.resize(pack.size() + 64, 0.0f);
  expect_wire_error([&] { decode_pack(pack); }, "pack 2^32 elements");

  std::vector<float> res;
  push_u32(res, static_cast<std::uint32_t>(Kind::kResult));
  push_u64(res, 1);
  for (const std::uint32_t lane : {1u, 1u, 65536u, 65536u, 1u}) {
    push_u32(res, lane);
  }
  res.resize(res.size() + 64, 0.0f);
  expect_wire_error([&] { decode_result(res); }, "result 2^32 elements");
}

// Cutting a valid payload anywhere must fail with a wire error: every
// field, including a tensor cut mid-way, checks the lanes it needs.
template <typename Decode>
void expect_every_strict_prefix_rejected(const std::vector<float>& payload,
                                         Decode decode,
                                         const std::string& what) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::vector<float> cut(payload.begin(),
                                 payload.begin() + static_cast<long>(len));
    expect_wire_error([&] { decode(cut); },
                      what + " cut at " + std::to_string(len));
  }
  EXPECT_NO_THROW(decode(payload)) << what;
}

TEST(Wire, EveryStrictPrefixOfAPackThrowsWireError) {
  const std::int64_t h = 2, w = 3, v = 2, f = 1;
  std::vector<Tensor> prev{filled({h, w, v}, 0), filled({h, w, v}, 1)};
  std::vector<Tensor> forc{filled({h, w, f}, 2), filled({h, w, f}, 3)};
  std::vector<core::MemberSlot> slots(2);
  for (std::size_t i = 0; i < 2; ++i) {
    slots[i].prev = &prev[i];
    slots[i].forcings = &forc[i];
    slots[i].noise = core::MemberKey{i + 1, i + 2};
  }
  const std::vector<float> payload =
      encode_pack(9, 0, core::SamplerKind::kDpmSolver, 0,
                  std::span<const core::MemberSlot>(slots), h, w, v, f);
  expect_every_strict_prefix_rejected(
      payload, [](const std::vector<float>& p) { (void)decode_pack(p); },
      "pack");
}

TEST(Wire, EveryStrictPrefixOfAResultThrowsWireError) {
  std::vector<Tensor> next{filled({2, 3, 2}, 5), filled({2, 3, 2}, 6)};
  expect_every_strict_prefix_rejected(
      encode_result(11, std::span<const Tensor>(next)),
      [](const std::vector<float>& p) { (void)decode_result(p); }, "result");
  expect_every_strict_prefix_rejected(
      encode_result_error(12, "worker fault"),
      [](const std::vector<float>& p) { (void)decode_result(p); },
      "error result");
}

TEST(Wire, EveryStrictPrefixOfJoinAndAnnounceThrowsWireError) {
  expect_every_strict_prefix_rejected(
      encode_invite(3, 0xABCDull),
      [](const std::vector<float>& p) { (void)decode_join(p); }, "join");
  expect_every_strict_prefix_rejected(
      encode_announce(3, 0xABCDull),
      [](const std::vector<float>& p) { (void)decode_join(p); },
      "announce");
}

// The first lane that differs between two encodings.
std::size_t differing_lane(const std::vector<float>& a,
                           const std::vector<float>& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return i;
  }
  return a.size();
}

std::vector<float> with_lane(std::vector<float> payload, std::size_t lane,
                             std::uint32_t value) {
  std::memcpy(&payload[lane], &value, sizeof(value));
  return payload;
}

// The sampler and solver-step override lanes carry an enum and an int: a
// sampler no core::SamplerKind names, or an override past INT_MAX (which a
// plain cast would turn negative), must be refused, never run as some
// other solver. The lanes are found by encoding packs that differ only in
// that field.
TEST(Wire, ForgedEnumLanesThrowWireError) {
  const std::int64_t h = 2, w = 2, v = 1, f = 1;
  const Tensor prev = filled({h, w, v}, 0);
  const Tensor forc = filled({h, w, f}, 1);
  core::MemberSlot slot;
  slot.prev = &prev;
  slot.forcings = &forc;
  slot.noise = core::MemberKey{1, 2};
  const auto encode = [&](core::SamplerKind kind, int steps) {
    return encode_pack(5, 0, kind, steps,
                       std::span<const core::MemberSlot>(&slot, 1), h, w, v,
                       f);
  };
  const std::vector<float> base = encode(core::SamplerKind::kDpmSolver, 3);
  const std::size_t sampler_lane =
      differing_lane(base, encode(core::SamplerKind::kConsistency, 3));
  const std::size_t steps_lane =
      differing_lane(base, encode(core::SamplerKind::kDpmSolver, 4));
  ASSERT_LT(sampler_lane, base.size());
  ASSERT_LT(steps_lane, base.size());

  for (const std::uint32_t bad : {2u, 7u, 0xFFFFFFFFu}) {
    expect_wire_error([&] { decode_pack(with_lane(base, sampler_lane, bad)); },
                      "sampler lane " + std::to_string(bad));
  }
  for (const std::uint32_t bad : {0x80000000u, 0xFFFFFFFFu}) {
    expect_wire_error([&] { decode_pack(with_lane(base, steps_lane, bad)); },
                      "override lane " + std::to_string(bad));
  }
  // The largest override an int holds still decodes.
  EXPECT_EQ(decode_pack(with_lane(base, steps_lane, 0x7FFFFFFFu))
                .solver_steps_override,
            std::numeric_limits<int>::max());
}

// A kind lane this format does not define fails every decoder, and a
// defined kind fails the decoders of the other kinds.
TEST(Wire, UnknownMessageKindThrowsWireError) {
  const std::vector<float> invite = encode_invite(1, 2);
  for (const std::uint32_t bad : {7u, 0x7FC00000u, 0xFFFFFFFFu}) {
    const std::vector<float> p = with_lane(invite, 0, bad);
    const std::string what = "kind " + std::to_string(bad);
    expect_wire_error([&] { (void)kind_of(p); }, what);
    expect_wire_error([&] { decode_pack(p); }, what + " pack");
    expect_wire_error([&] { decode_result(p); }, what + " result");
    expect_wire_error([&] { decode_join(p); }, what + " join");
  }
  expect_wire_error([] { (void)kind_of({}); }, "empty payload");
  expect_wire_error([&] { decode_pack(invite); }, "invite as a pack");
  expect_wire_error([&] { decode_result(invite); }, "invite as a result");
  expect_wire_error([] { decode_join(encode_heartbeat()); },
                    "heartbeat as a join");
}

// Deterministic mutation fuzzing of every serving decoder: valid messages
// of every kind, mutated by Philox-drawn bit flips and truncations and by
// each header lane forced to 0 and to 0xFFFFFFFF, go through every
// decoder. Each mutant must decode or fail with the decoder's own
// "wire: ..." runtime_error — never another exception, an unbounded
// allocation or a misread past the payload (the sanitizer legs run this
// too).
TEST(Wire, MutatedPayloadsDecodeOrThrowWireError) {
  const std::int64_t h = 2, w = 3, v = 2, f = 1;
  std::vector<Tensor> prev{filled({h, w, v}, 0), filled({h, w, v}, 1)};
  std::vector<Tensor> forc{filled({h, w, f}, 2), filled({h, w, f}, 3)};
  std::vector<core::MemberSlot> slots(2);
  for (std::size_t i = 0; i < 2; ++i) {
    slots[i].prev = &prev[i];
    slots[i].forcings = &forc[i];
    slots[i].noise = core::MemberKey{i + 1, i + 2};
  }
  const std::vector<std::vector<float>> seeds = {
      encode_pack(9, 0, core::SamplerKind::kConsistency, 2,
                  std::span<const core::MemberSlot>(slots), h, w, v, f),
      encode_shutdown(),
      encode_result(11, std::span<const Tensor>(prev)),
      encode_result_error(12, "worker fault"),
      encode_heartbeat(),
      encode_invite(3, 0xABCDull),
      encode_announce(3, 0xABCDull),
      encode_verdict(3, true),
  };

  std::size_t mutants = 0;
  const auto decode_all = [&](const std::vector<float>& p,
                              const std::string& what) {
    ++mutants;
    expect_decodes_or_wire_error([&] { (void)kind_of(p); }, what);
    expect_decodes_or_wire_error([&] { (void)decode_pack(p); }, what);
    expect_decodes_or_wire_error([&] { (void)decode_result(p); }, what);
    expect_decodes_or_wire_error([&] { (void)decode_join(p); }, what);
  };

  const Philox rng(0x5EEDF00Dull);
  constexpr std::uint64_t kFlips = 200, kCuts = 40;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    const std::vector<float>& seed = seeds[k];
    const std::string name = "seed " + std::to_string(k);
    for (std::uint64_t i = 0; i < kFlips; ++i) {
      const std::array<std::uint32_t, 4> r = rng.raw(k, i, 0);
      std::vector<float> p = seed;
      // One to three flipped bits, in the header half the time.
      for (std::uint32_t b = 0; b <= r[0] % 3; ++b) {
        const std::size_t span_lanes =
            (r[1] & 1u) != 0 ? std::min<std::size_t>(p.size(), 12)
                             : p.size();
        const std::size_t lane = r[b + 1] % span_lanes;
        std::uint32_t bits;
        std::memcpy(&bits, &p[lane], sizeof(bits));
        bits ^= 1u << (r[3 - b] % 32);
        std::memcpy(&p[lane], &bits, sizeof(bits));
      }
      decode_all(p, name + " flip " + std::to_string(i));
    }
    for (std::uint64_t i = 0; i < kCuts; ++i) {
      const std::size_t len = rng.raw(k, kFlips + i, 0)[0] % seed.size();
      decode_all(std::vector<float>(seed.begin(),
                                    seed.begin() + static_cast<long>(len)),
                 name + " cut at " + std::to_string(len));
    }
    for (std::size_t lane = 0; lane < std::min<std::size_t>(seed.size(), 12);
         ++lane) {
      for (const std::uint32_t forced : {0u, 0xFFFFFFFFu}) {
        decode_all(with_lane(seed, lane, forced),
                   name + " lane " + std::to_string(lane) + " = " +
                       std::to_string(forced));
      }
    }
  }
  EXPECT_GT(mutants, seeds.size() * (kFlips + kCuts));
}

// A model without forcing channels sends [h, w, 0] forcings: the zero
// extent must decode to empty tensors of that shape without disturbing
// the state lanes around them.
TEST(Wire, ZeroForcingChannelsRoundTrip) {
  const std::int64_t h = 3, w = 2, v = 2;
  std::vector<Tensor> prev{filled({h, w, v}, 7), filled({h, w, v}, 8)};
  const Tensor none({h, w, 0});
  std::vector<core::MemberSlot> slots(2);
  for (std::size_t i = 0; i < 2; ++i) {
    slots[i].prev = &prev[i];
    slots[i].forcings = &none;
    slots[i].noise = core::MemberKey{i, i};
  }
  const PackMsg msg = decode_pack(
      encode_pack(3, 1, core::SamplerKind::kDpmSolver, 0,
                  std::span<const core::MemberSlot>(slots), h, w, v, 0));
  ASSERT_EQ(msg.prev.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_bitwise(msg.prev[i], prev[i]);
    EXPECT_EQ(msg.forcings[i].shape(), (Shape{h, w, 0}));
  }
}

TEST(Wire, EmptyErrorMessageAndEmptyResultRoundTrip) {
  const ResultMsg err = decode_result(encode_result_error(13, ""));
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.pack_id, 13u);
  EXPECT_TRUE(err.error.empty());

  const ResultMsg none = decode_result(encode_result(14, {}));
  EXPECT_TRUE(none.ok);
  EXPECT_EQ(none.pack_id, 14u);
  EXPECT_TRUE(none.next.empty());
}

}  // namespace
}  // namespace aeris::serving::wire
