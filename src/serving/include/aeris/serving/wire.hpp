#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aeris/core/ensemble.hpp"

namespace aeris::serving::wire {

/// Wire format of the cluster forecast server's serving plane. Messages
/// travel as the World's native `std::vector<float>` payloads; integer
/// header fields are bit-cast into float lanes (memcpy, never a
/// value-preserving cast — a u64 pack id must survive the trip exactly).
///
/// The plane has one lane per direction: every rank holds one receive on
/// kDownTag (front-end -> rank) and the front-end one per rank on kUpTag
/// (rank -> front-end). Every message opens with a Kind lane saying what
/// follows; messages are FIFO per (src, tag), and pack ids and
/// incarnations ride in the headers. The tags live far above the
/// collective tag sub-space ((group_tag << 40) | tag) of any Communicator.
inline constexpr std::uint64_t kDownTag = 0x5E00000000000001ull;
inline constexpr std::uint64_t kUpTag = 0x5E00000000000002ull;

/// The first lane of every serving message. Packs, shutdowns, results and
/// heartbeats travel in Traffic::kServing; invites, announces and verdicts
/// (the elastic-membership handshake) in Traffic::kMembership.
enum class Kind : std::uint32_t {
  kPack = 0,       ///< front-end -> worker: member slots to step
  kShutdown = 1,   ///< front-end -> any rank: the incarnation is over
  kResult = 2,     ///< worker -> front-end: a pack's next states or error
  kHeartbeat = 3,  ///< worker -> front-end: liveness, no body
  kInvite = 4,     ///< front-end -> spare: wake up and announce yourself
  kAnnounce = 5,   ///< spare -> front-end: claimed incarnation/fingerprint
  kVerdict = 6,    ///< front-end -> spare: admission decision
};

/// The kind lane of `payload`; throws a "wire: ..." std::runtime_error on
/// an empty payload or a kind this format does not define.
Kind kind_of(const std::vector<float>& payload);

/// A decoded work pack (front-end -> worker).
struct PackMsg {
  std::uint64_t pack_id = 0;
  /// Registry index of the variant this pack runs on: worker ranks resolve
  /// the engine from their local ModelRegistry replica (indices agree
  /// because every rank is built from the same registry).
  std::uint32_t model = 0;
  core::SamplerKind kind = core::SamplerKind::kDpmSolver;
  int solver_steps_override = 0;
  std::vector<core::MemberKey> noise;  ///< per slot
  std::vector<Tensor> prev;            ///< per slot, [H, W, V]
  std::vector<Tensor> forcings;        ///< per slot, [H, W, F]
};

/// A decoded pack result (worker -> front-end). `ok` carries one next
/// state per slot, in slot order; otherwise `error` holds the first
/// exception message out of the worker's solve.
struct ResultMsg {
  std::uint64_t pack_id = 0;
  bool ok = false;
  std::vector<Tensor> next;  ///< per slot, [H, W, V]
  std::string error;
};

/// Encodes a work pack. `slots` follow the step_pack contract (prev and
/// forcings non-null); dims are the model's state [h, w, v] and forcing
/// [h, w, f] extents, carried in the header so the worker can rebuild the
/// tensors without consulting its own config.
std::vector<float> encode_pack(std::uint64_t pack_id, std::uint32_t model,
                               core::SamplerKind kind,
                               int solver_steps_override,
                               std::span<const core::MemberSlot> slots,
                               std::int64_t h, std::int64_t w, std::int64_t v,
                               std::int64_t f);

/// Decodes a kPack message. Any other kind, a sampler lane naming no
/// core::SamplerKind, a solver-step override past INT_MAX, or a truncated
/// or forged shape throws a "wire: ..." std::runtime_error.
PackMsg decode_pack(const std::vector<float>& payload);

/// The kShutdown message (no body).
std::vector<float> encode_shutdown();

std::vector<float> encode_result(std::uint64_t pack_id,
                                 std::span<const Tensor> next);

std::vector<float> encode_result_error(std::uint64_t pack_id,
                                       const std::string& msg);

ResultMsg decode_result(const std::vector<float>& payload);

/// The kHeartbeat message (no body).
std::vector<float> encode_heartbeat();

/// A decoded membership message: an invite carries the incarnation the
/// joiner would serve under and the fingerprint the offered capacity
/// claims (0 = compute from the local registry replica); an announce
/// echoes the incarnation with the fingerprint the joiner serves; a
/// verdict echoes the incarnation and carries the admission decision.
struct JoinMsg {
  Kind kind = Kind::kInvite;
  std::uint64_t incarnation = 0;
  std::uint64_t fingerprint = 0;
  bool accept = false;
};

std::vector<float> encode_invite(std::uint64_t incarnation,
                                 std::uint64_t fingerprint);
std::vector<float> encode_announce(std::uint64_t incarnation,
                                   std::uint64_t fingerprint);
std::vector<float> encode_verdict(std::uint64_t incarnation, bool accept);
/// Decodes a kInvite, kAnnounce or kVerdict message; any other kind
/// throws a "wire: ..." std::runtime_error.
JoinMsg decode_join(const std::vector<float>& payload);

}  // namespace aeris::serving::wire
