#include "aeris/serving/wire.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace aeris::serving::wire {
namespace {

// Integer fields ride in float lanes by bit pattern. Any float payload lane
// may be NaN/denormal as a float; only memcpy round-trips exactly.

void put_u64(std::vector<float>& out, std::uint64_t v) {
  float lanes[2];
  std::memcpy(lanes, &v, sizeof(v));
  out.push_back(lanes[0]);
  out.push_back(lanes[1]);
}

std::uint64_t get_u64(const std::vector<float>& in, std::size_t& pos) {
  if (pos + 2 > in.size()) {
    throw std::runtime_error("wire: truncated u64 field");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + pos, sizeof(v));
  pos += 2;
  return v;
}

void put_u32(std::vector<float>& out, std::uint32_t v) {
  float lane;
  std::memcpy(&lane, &v, sizeof(v));
  out.push_back(lane);
}

std::uint32_t get_u32(const std::vector<float>& in, std::size_t& pos) {
  if (pos + 1 > in.size()) {
    throw std::runtime_error("wire: truncated u32 field");
  }
  std::uint32_t v = 0;
  std::memcpy(&v, in.data() + pos, sizeof(v));
  pos += 1;
  return v;
}

// Lanes not yet consumed. Headers are untrusted, so every reservation is
// capped by this before anything is allocated.
std::size_t lanes_left(const std::vector<float>& in, std::size_t pos) {
  return in.size() - pos;
}

void put_tensor(std::vector<float>& out, const Tensor& t) {
  out.insert(out.end(), t.flat().begin(), t.flat().end());
}

// Reads a [d0, d1, d2] tensor whose dims came off u32 lanes. d0 * d1
// cannot overflow 64 bits, and d2 is divided out of the remaining lanes
// rather than multiplied in, so a forged shape is rejected before its
// element count can overflow or exceed the payload.
Tensor get_tensor(const std::vector<float>& in, std::size_t& pos,
                  std::uint32_t d0, std::uint32_t d1, std::uint32_t d2) {
  const std::uint64_t plane = std::uint64_t{d0} * d1;
  const bool fits =
      d2 == 0 ? plane <= static_cast<std::uint64_t>(
                             std::numeric_limits<std::int64_t>::max())
              : plane <= lanes_left(in, pos) / d2;
  if (!fits) throw std::runtime_error("wire: truncated tensor field");
  const auto n = static_cast<std::size_t>(plane * d2);
  Tensor t(Shape{d0, d1, d2});
  std::copy_n(in.data() + pos, n, t.data());
  pos += n;
  return t;
}

void put_string(std::vector<float>& out, const std::string& s) {
  // One char per lane: heavyweight but only travels on the error path.
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  for (const char c : s) {
    put_u32(out, static_cast<std::uint32_t>(static_cast<unsigned char>(c)));
  }
}

std::string get_string(const std::vector<float>& in, std::size_t& pos) {
  const std::uint32_t n = get_u32(in, pos);
  std::string s;
  s.reserve(std::min<std::size_t>(n, lanes_left(in, pos)));
  for (std::uint32_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(get_u32(in, pos)));
  }
  return s;
}

// Opens a message with its kind lane.
std::vector<float> open_message(Kind kind, std::size_t lanes) {
  std::vector<float> out;
  out.reserve(lanes);
  put_u32(out, static_cast<std::uint32_t>(kind));
  return out;
}

// Checks that the kind lane is `want`; returns the position past it.
std::size_t expect_kind(const std::vector<float>& in, Kind want,
                        const char* what) {
  const Kind got = kind_of(in);
  if (got != want) {
    throw std::runtime_error(
        std::string("wire: expected ") + what + ", got message kind " +
        std::to_string(static_cast<std::uint32_t>(got)));
  }
  return 1;
}

// Invite, announce and verdict share one layout: kind, incarnation,
// fingerprint, accept.
std::vector<float> encode_join(Kind kind, std::uint64_t incarnation,
                               std::uint64_t fingerprint, bool accept) {
  std::vector<float> out = open_message(kind, 6);
  put_u64(out, incarnation);
  put_u64(out, fingerprint);
  put_u32(out, accept ? 1u : 0u);
  return out;
}

}  // namespace

Kind kind_of(const std::vector<float>& payload) {
  std::size_t pos = 0;
  const std::uint32_t kind = get_u32(payload, pos);
  if (kind > static_cast<std::uint32_t>(Kind::kVerdict)) {
    throw std::runtime_error("wire: unknown message kind " +
                             std::to_string(kind));
  }
  return static_cast<Kind>(kind);
}

std::vector<float> encode_pack(std::uint64_t pack_id, std::uint32_t model,
                               core::SamplerKind kind,
                               int solver_steps_override,
                               std::span<const core::MemberSlot> slots,
                               std::int64_t h, std::int64_t w, std::int64_t v,
                               std::int64_t f) {
  const std::size_t per_slot =
      4 + static_cast<std::size_t>(h * w * (v + f));
  std::vector<float> out =
      open_message(Kind::kPack, 11 + slots.size() * per_slot);
  put_u64(out, pack_id);
  put_u32(out, model);
  put_u32(out, static_cast<std::uint32_t>(kind));
  put_u32(out, static_cast<std::uint32_t>(solver_steps_override));
  put_u32(out, static_cast<std::uint32_t>(slots.size()));
  put_u32(out, static_cast<std::uint32_t>(h));
  put_u32(out, static_cast<std::uint32_t>(w));
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(f));
  for (const core::MemberSlot& s : slots) {
    put_u64(out, s.noise.seed);
    put_u64(out, s.noise.key);
    put_tensor(out, *s.prev);
    put_tensor(out, *s.forcings);
  }
  return out;
}

PackMsg decode_pack(const std::vector<float>& payload) {
  std::size_t pos = expect_kind(payload, Kind::kPack, "a pack");
  PackMsg msg;
  msg.pack_id = get_u64(payload, pos);
  msg.model = get_u32(payload, pos);
  const std::uint32_t sampler = get_u32(payload, pos);
  if (sampler > static_cast<std::uint32_t>(core::SamplerKind::kConsistency)) {
    throw std::runtime_error("wire: unknown sampler kind " +
                             std::to_string(sampler));
  }
  msg.kind = static_cast<core::SamplerKind>(sampler);
  const std::uint32_t steps = get_u32(payload, pos);
  if (steps > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
    throw std::runtime_error("wire: solver-step override " +
                             std::to_string(steps) + " exceeds INT_MAX");
  }
  msg.solver_steps_override = static_cast<int>(steps);
  const std::uint32_t n_slots = get_u32(payload, pos);
  const std::uint32_t h = get_u32(payload, pos);
  const std::uint32_t w = get_u32(payload, pos);
  const std::uint32_t v = get_u32(payload, pos);
  const std::uint32_t f = get_u32(payload, pos);
  // A slot is at least its two u64 noise-key fields.
  const std::size_t fit =
      std::min<std::size_t>(n_slots, lanes_left(payload, pos) / 4);
  msg.noise.reserve(fit);
  msg.prev.reserve(fit);
  msg.forcings.reserve(fit);
  for (std::uint32_t i = 0; i < n_slots; ++i) {
    core::MemberKey key;
    key.seed = get_u64(payload, pos);
    key.key = get_u64(payload, pos);
    msg.noise.push_back(key);
    msg.prev.push_back(get_tensor(payload, pos, h, w, v));
    msg.forcings.push_back(get_tensor(payload, pos, h, w, f));
  }
  return msg;
}

std::vector<float> encode_shutdown() {
  return open_message(Kind::kShutdown, 1);
}

std::vector<float> encode_result(std::uint64_t pack_id,
                                 std::span<const Tensor> next) {
  std::size_t total = 5;
  for (const Tensor& t : next) {
    total += 3 + static_cast<std::size_t>(t.numel());
  }
  std::vector<float> out = open_message(Kind::kResult, total);
  put_u64(out, pack_id);
  put_u32(out, 1);  // ok
  put_u32(out, static_cast<std::uint32_t>(next.size()));
  for (const Tensor& t : next) {
    put_u32(out, static_cast<std::uint32_t>(t.dim(0)));
    put_u32(out, static_cast<std::uint32_t>(t.dim(1)));
    put_u32(out, static_cast<std::uint32_t>(t.dim(2)));
    put_tensor(out, t);
  }
  return out;
}

std::vector<float> encode_result_error(std::uint64_t pack_id,
                                       const std::string& msg) {
  std::vector<float> out = open_message(Kind::kResult, 5 + msg.size());
  put_u64(out, pack_id);
  put_u32(out, 0);  // error
  put_string(out, msg);
  return out;
}

ResultMsg decode_result(const std::vector<float>& payload) {
  std::size_t pos = expect_kind(payload, Kind::kResult, "a result");
  ResultMsg msg;
  msg.pack_id = get_u64(payload, pos);
  const bool ok = get_u32(payload, pos) != 0;
  msg.ok = ok;
  if (!ok) {
    msg.error = get_string(payload, pos);
    return msg;
  }
  const std::uint32_t n = get_u32(payload, pos);
  // An entry is at least its three u32 shape lanes.
  msg.next.reserve(std::min<std::size_t>(n, lanes_left(payload, pos) / 3));
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t h = get_u32(payload, pos);
    const std::uint32_t w = get_u32(payload, pos);
    const std::uint32_t v = get_u32(payload, pos);
    msg.next.push_back(get_tensor(payload, pos, h, w, v));
  }
  return msg;
}

std::vector<float> encode_heartbeat() {
  return open_message(Kind::kHeartbeat, 1);
}

std::vector<float> encode_invite(std::uint64_t incarnation,
                                 std::uint64_t fingerprint) {
  return encode_join(Kind::kInvite, incarnation, fingerprint, false);
}

std::vector<float> encode_announce(std::uint64_t incarnation,
                                   std::uint64_t fingerprint) {
  return encode_join(Kind::kAnnounce, incarnation, fingerprint, false);
}

std::vector<float> encode_verdict(std::uint64_t incarnation, bool accept) {
  return encode_join(Kind::kVerdict, incarnation, 0, accept);
}

JoinMsg decode_join(const std::vector<float>& payload) {
  JoinMsg msg;
  msg.kind = kind_of(payload);
  if (msg.kind != Kind::kInvite && msg.kind != Kind::kAnnounce &&
      msg.kind != Kind::kVerdict) {
    throw std::runtime_error(
        "wire: expected a membership message, got message kind " +
        std::to_string(static_cast<std::uint32_t>(msg.kind)));
  }
  std::size_t pos = 1;
  msg.incarnation = get_u64(payload, pos);
  msg.fingerprint = get_u64(payload, pos);
  msg.accept = get_u32(payload, pos) != 0;
  return msg;
}

}  // namespace aeris::serving::wire
