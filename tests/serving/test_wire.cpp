#include "aeris/serving/wire.hpp"

#include <gtest/gtest.h>

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

  EXPECT_FALSE(msg.shutdown);
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
  const PackMsg msg = decode_pack(encode_shutdown());
  EXPECT_TRUE(msg.shutdown);
  EXPECT_TRUE(msg.prev.empty());
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

  const JoinMsg invite = decode_join(encode_join_invite(inc, fp));
  EXPECT_EQ(invite.kind, JoinKind::kInvite);
  EXPECT_EQ(invite.incarnation, inc);
  EXPECT_EQ(invite.fingerprint, fp);
  EXPECT_FALSE(invite.accept);

  const JoinMsg yes = decode_join(encode_join_verdict(inc, true));
  EXPECT_EQ(yes.kind, JoinKind::kVerdict);
  EXPECT_EQ(yes.incarnation, inc);
  EXPECT_TRUE(yes.accept);

  const JoinMsg no = decode_join(encode_join_verdict(3, false));
  EXPECT_EQ(no.kind, JoinKind::kVerdict);
  EXPECT_EQ(no.incarnation, 3u);
  EXPECT_FALSE(no.accept);

  const JoinMsg bye = decode_join(encode_join_shutdown());
  EXPECT_EQ(bye.kind, JoinKind::kShutdown);

  EXPECT_THROW(decode_join(std::vector<float>(2, 0.0f)),
               std::runtime_error);
}

TEST(Wire, AnnounceRoundTripsFingerprint) {
  const AnnounceMsg ann =
      decode_announce(encode_announce(42, 0xDEADBEEFCAFEF00Dull));
  EXPECT_EQ(ann.incarnation, 42u);
  EXPECT_EQ(ann.fingerprint, 0xDEADBEEFCAFEF00Dull);
  EXPECT_THROW(decode_announce(std::vector<float>(1, 0.0f)),
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

// Pack header: pack id, model, kind, override, n_slots, h, w, v, f.
std::vector<float> pack_header(std::uint32_t n_slots, std::uint32_t h,
                               std::uint32_t w, std::uint32_t v,
                               std::uint32_t f) {
  std::vector<float> out;
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
  ASSERT_EQ(slots.size(), 10u);
  expect_wire_error([&] { decode_pack(slots); }, "n_slots");

  std::vector<float> shape = pack_header(1, kMax, kMax, kMax, 1);
  push_u64(shape, 3);  // noise seed
  push_u64(shape, 4);  // noise key
  expect_wire_error([&] { decode_pack(shape); }, "pack h*w*v");

  // Result payloads: pack id, ok flag, then the forged lanes.
  auto result = [](std::uint32_t ok, std::vector<std::uint32_t> lanes) {
    std::vector<float> out;
    push_u64(out, 1);
    push_u32(out, ok);
    for (const std::uint32_t lane : lanes) push_u32(out, lane);
    out.resize(10, 0.0f);
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
      encode_join_invite(3, 0xABCDull),
      [](const std::vector<float>& p) { (void)decode_join(p); }, "join");
  expect_every_strict_prefix_rejected(
      encode_announce(3, 0xABCDull),
      [](const std::vector<float>& p) { (void)decode_announce(p); },
      "announce");
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
