#include "aeris/serving/ledger.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "aeris/core/env.hpp"
#include "aeris/tensor/numerics.hpp"

namespace aeris::serving {
namespace {

using Clock = detail::Clock;
using core::env_number;
using detail::ms_between;

/// Jitter draws use this stream id on the ledger's private Philox.
constexpr std::uint64_t kJitterStream = 1;

std::exception_ptr status_error(RequestStatus status, const std::string& msg) {
  switch (status) {
    case RequestStatus::kRejected:
      return std::make_exception_ptr(
          RejectedError(RejectReason::kShutdown, msg));
    case RequestStatus::kDeadlineExceeded:
      return std::make_exception_ptr(DeadlineExceededError(msg));
    case RequestStatus::kWorkerLost:
      return std::make_exception_ptr(WorkerLostError(msg));
    default:
      return std::make_exception_ptr(std::runtime_error(msg));
  }
}

}  // namespace

ServerOptions ServerOptions::from_env() {
  ServerOptions o;
  o.queue_capacity = env_number("AERIS_SERVE_QUEUE_CAP", o.queue_capacity);
  o.default_deadline_ms =
      env_number("AERIS_SERVE_DEADLINE_MS", o.default_deadline_ms);
  o.max_retry_backoff_ms =
      env_number("AERIS_SERVE_RETRY_CAP_MS", o.max_retry_backoff_ms);
  o.degrade.fallback_wait_threshold_ms =
      env_number("AERIS_SERVE_DEGRADE_FALLBACK_WAIT_MS",
                 o.degrade.fallback_wait_threshold_ms);
  o.degrade.est_wait_threshold_ms = env_number(
      "AERIS_SERVE_DEGRADE_WAIT_MS", o.degrade.est_wait_threshold_ms);
  o.degrade.degraded_solver_steps = env_number(
      "AERIS_SERVE_DEGRADE_STEPS", o.degrade.degraded_solver_steps);
  o.degrade.max_members =
      env_number("AERIS_SERVE_DEGRADE_MEMBERS", o.degrade.max_members);
  o.degrade.to_consistency =
      env_number("AERIS_SERVE_DEGRADE_TO_CONSISTENCY",
                 o.degrade.to_consistency ? 1 : 0) != 0;
  o.degrade.cut_wait_threshold_ms = env_number(
      "AERIS_SERVE_DEGRADE_CUT_WAIT_MS", o.degrade.cut_wait_threshold_ms);
  return o;
}

double retry_delay_ms(const ServerOptions& opts, int attempt, double jitter) {
  // ldexp instead of 1 << (attempt - 1): a large max_step_retries must
  // saturate the cap, not overflow the shift.
  const double delay = opts.retry_backoff_ms *
                       std::ldexp(1.0, std::min(attempt, 1024) - 1) *
                       (0.5 + jitter);
  if (opts.max_retry_backoff_ms > 0.0) {
    return std::min(delay, opts.max_retry_backoff_ms);
  }
  return delay;
}

void validate_request(const core::ParallelEnsembleEngine& engine,
                      const ForecastRequest& req) {
  const core::ModelConfig& mc = engine.model().config();
  if (req.init.ndim() != 3 || req.init.dim(0) != mc.h ||
      req.init.dim(1) != mc.w || req.init.dim(2) != mc.out_channels) {
    throw std::invalid_argument(
        "forecast: init must be [H, W, V] matching the model config");
  }
  if (!req.forcings_at) {
    throw std::invalid_argument("forecast: forcings_at must be callable");
  }
  if (req.members <= 0 || req.steps <= 0) {
    throw std::invalid_argument("forecast: members and steps must be >= 1");
  }
}

RequestLedger::RequestLedger(const ModelRegistry& registry,
                             const ServerOptions& opts)
    : registry_(registry), opts_(opts), jitter_rng_(0x9E3779B97F4A7C15ull) {
  if (registry_.empty()) {
    throw std::invalid_argument(
        "RequestLedger: registry must hold at least one variant");
  }
  detail::require_option(opts_.queue_capacity >= 1,
                         "ServerOptions::queue_capacity",
                         opts_.queue_capacity, "must be >= 1");
  detail::require_option(opts_.batch >= 1, "ServerOptions::batch",
                         opts_.batch, "must be >= 1");
  detail::require_option(opts_.workers >= 1, "ServerOptions::workers",
                         opts_.workers, "must be >= 1");
  detail::require_option(opts_.max_step_retries >= 0,
                         "ServerOptions::max_step_retries",
                         opts_.max_step_retries, "must be >= 0");
  // Per-variant counters exist from construction (zeros until traffic).
  for (std::int64_t i = 0; i < registry_.size(); ++i) {
    stats_.per_model[registry_.at(i).name];
  }
  pending_member_steps_.assign(static_cast<std::size_t>(registry_.size()), 0);
  ema_member_step_ms_.assign(static_cast<std::size_t>(registry_.size()), 0.0);
}

bool RequestLedger::admit(const ForecastRequest& req, int capacity_divisor,
                          std::future<ForecastResult>& future,
                          ForecastResult& refused) {
  const Clock::time_point now = Clock::now();

  // Routing runs before the lock — the registry is frozen during serving —
  // and routing failures are typed terminal results, never bare throws.
  const std::int64_t vi = registry_.resolve(req.model, req.quality);
  const auto reject_unsupported = [&](const std::string& msg) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rejected;
    }
    refused.status = RequestStatus::kRejected;
    refused.error_message = msg;
    refused.error = std::make_exception_ptr(
        RejectedError(RejectReason::kUnsupported, msg));
    return true;
  };
  if (vi < 0) {
    return reject_unsupported("forecast: unknown model '" + req.model + "'");
  }
  const ModelVariant* variant = &registry_.at(vi);
  const core::SamplerKind req_sampler =
      req.sampler.value_or(variant->engine->sampler_kind());
  if (req_sampler == core::SamplerKind::kConsistency &&
      !variant->engine->has_consistency()) {
    return reject_unsupported(
        "forecast: consistency sampler requested but model '" +
        variant->name + "' has no consistency path (set_consistency)");
  }
  validate_request(*variant->engine, req);

  std::shared_ptr<detail::ActiveRequest> a;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || refusing_) {
      ++stats_.rejected;
      const RequestStatus status =
          stopping_ ? RequestStatus::kRejected : refuse_status_;
      const std::string msg =
          stopping_ ? "server is shut down" : refuse_msg_;
      refused.status = status;
      refused.error_message = msg;
      refused.error = status_error(status, msg);
      return true;
    }
    if (active_count_ >= opts_.queue_capacity) {
      ++stats_.rejected;
      const std::string msg =
          "queue full: " + std::to_string(active_count_) +
          " active requests (capacity " +
          std::to_string(opts_.queue_capacity) + ")";
      refused.status = RequestStatus::kRejected;
      refused.error_message = msg;
      refused.error = std::make_exception_ptr(
          RejectedError(RejectReason::kQueueFull, msg));
      return true;
    }

    a = std::make_shared<detail::ActiveRequest>();
    a->id = next_id_++;
    a->init = req.init;
    a->forcings_at = req.forcings_at;
    a->members = req.members;
    a->steps = req.steps;
    a->seed = req.seed;
    a->return_partial = req.return_partial;
    a->sampler = req_sampler;
    a->engine = variant->engine;
    a->model_name = variant->name;
    a->model_index = static_cast<std::uint32_t>(vi);
    a->solver_steps = variant->engine->solver_steps(req_sampler);
    a->admit = now;

    // Graceful degradation decided at admission, from the backlog estimate
    // (admitted-but-uncommitted member steps x EMA step cost / executors),
    // keyed by the variant that would serve: a slow variant's backlog never
    // degrades a fast variant's admissions. Rungs stack in cost order; the
    // estimate is re-read against the fallback variant once the zeroth
    // rung re-routes.
    const DegradePolicy& dp = opts_.degrade;
    const auto est_wait_for = [&](std::int64_t idx) {
      const auto v = static_cast<std::size_t>(idx);
      return static_cast<double>(pending_member_steps_[v]) *
             ema_member_step_ms_[v] /
             static_cast<double>(std::max(1, capacity_divisor));
    };
    double est_wait_ms = est_wait_for(vi);

    // Zeroth rung: cross-model fallback. A variant with a declared
    // fallback edge sheds the whole request to the coarse/preview variant
    // — the cheapest whole quality trade — before any sampler switch or
    // step/member cut. Skipped when the request pinned a sampler family
    // the fallback engine cannot serve.
    if (dp.fallback_wait_threshold_ms != 0.0 && variant->fallback >= 0 &&
        (dp.fallback_wait_threshold_ms < 0.0 ||
         est_wait_ms > dp.fallback_wait_threshold_ms)) {
      const std::int64_t fbi = variant->fallback;
      const ModelVariant& fb = registry_.at(fbi);
      const core::SamplerKind fb_sampler =
          req.sampler.value_or(fb.engine->sampler_kind());
      const bool fb_serves = fb_sampler != core::SamplerKind::kConsistency ||
                             fb.engine->has_consistency();
      if (fb_serves) {
        a->degraded = true;
        ++stats_.degraded;
        ++stats_.degraded_to_fallback_model;
        // Keyed by the variant that shed the request, not the one that
        // will serve it.
        ++stats_.per_model[variant->name].degraded_to_fallback_model;
        const core::ModelConfig& fine = variant->engine->model().config();
        const core::ModelConfig& coarse = fb.engine->model().config();
        if (fine.h != coarse.h || fine.w != coarse.w) {
          // Cross-grid edge: adapt the request's state and forcings by
          // area-mean pooling (set_fallback validated integer factors).
          a->init = coarsen_mean(a->init, coarse.h, coarse.w);
          core::ForcingFn fine_fn = std::move(a->forcings_at);
          const std::int64_t ch = coarse.h;
          const std::int64_t cw = coarse.w;
          a->forcings_at = [fine_fn = std::move(fine_fn), ch,
                            cw](std::int64_t s) {
            return coarsen_mean(fine_fn(s), ch, cw);
          };
        }
        variant = &fb;
        a->engine = fb.engine;
        a->model_name = fb.name;
        a->model_index = static_cast<std::uint32_t>(fbi);
        a->sampler = fb_sampler;
        a->solver_steps = fb.engine->solver_steps(fb_sampler);
        est_wait_ms = est_wait_for(fbi);
      }
    }

    // Remaining rungs evaluate against the serving variant's engine (the
    // fallback's when the zeroth rung fired — rungs stack).
    const core::ParallelEnsembleEngine& eng = *a->engine;
    if (dp.est_wait_threshold_ms != 0.0) {
      if (dp.est_wait_threshold_ms < 0.0 ||
          est_wait_ms > dp.est_wait_threshold_ms) {
        if (!a->degraded) {
          a->degraded = true;
          ++stats_.degraded;
        }
        // Next rung: a teacher-path request on an engine with a distilled
        // student is switched to the few-step consistency sampler at full
        // member count — the cheapest quality trade available. Step/member
        // cuts then only engage past the (stricter) second threshold.
        const bool switched =
            dp.to_consistency && eng.has_consistency() &&
            a->sampler == core::SamplerKind::kDpmSolver;
        if (switched) {
          a->sampler = core::SamplerKind::kConsistency;
          a->solver_steps =
              eng.solver_steps(core::SamplerKind::kConsistency);
          ++stats_.degraded_to_consistency;
        }
        const bool cut =
            !switched ||
            (dp.cut_wait_threshold_ms != 0.0 &&
             (dp.cut_wait_threshold_ms < 0.0 ||
              est_wait_ms > dp.cut_wait_threshold_ms));
        if (cut) {
          if (dp.degraded_solver_steps > 0) {
            a->solver_steps =
                std::min(a->solver_steps, dp.degraded_solver_steps);
          }
          if (dp.max_members > 0) {
            a->members = std::min(a->members, dp.max_members);
          }
        }
      }
    }

    const double deadline_ms =
        req.deadline_ms < 0.0 ? opts_.default_deadline_ms : req.deadline_ms;
    if (deadline_ms > 0.0) {
      a->has_deadline = true;
      a->deadline = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  deadline_ms));
    }

    a->traj.resize(static_cast<std::size_t>(a->members));
    a->reports.resize(static_cast<std::size_t>(a->members));
    for (std::int64_t m = 0; m < a->members; ++m) {
      a->reports[static_cast<std::size_t>(m)].member = m;
    }
    a->member_done.assign(static_cast<std::size_t>(a->members), 0);
    a->quarantine_used.assign(static_cast<std::size_t>(a->members), 0);

    ++stats_.accepted;
    ++stats_.per_model[a->model_name].admitted;
    ++active_count_;
    pending_member_steps_[a->model_index] += a->members * a->steps;
    actives_.push_back(a);
    future = a->promise.get_future();
    for (std::int64_t m = 0; m < a->members; ++m) {
      ready_.push_back(Cursor{a, m, 0, Clock::time_point{}});
    }
  }
  cv_.notify_all();
  return false;
}

bool RequestLedger::wait_for_work(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return stopping_ || !ready_.empty(); });
  return !stopping_;
}

bool RequestLedger::stopping() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_;
}

std::vector<PackItem> RequestLedger::take_pack(std::int64_t max_items) {
  std::vector<PackItem> pack;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return pack;
  const Clock::time_point now = Clock::now();
  // Sweep + pack formation in one FIFO scan: drop cursors of finalized
  // requests, doom expired ones (even while backoff-gated — a request
  // never waits out a backoff past its deadline), then collect up to
  // `max_items` eligible cursors sharing one solver-step count (degraded
  // requests run a different ODE schedule and cannot share a stack).
  int pack_solver_steps = -1;
  core::SamplerKind pack_sampler = core::SamplerKind::kDpmSolver;
  const core::ParallelEnsembleEngine* pack_engine = nullptr;
  for (auto it = ready_.begin();
       it != ready_.end() &&
       pack.size() < static_cast<std::size_t>(std::max<std::int64_t>(
                         1, max_items));) {
    const std::shared_ptr<detail::ActiveRequest> a = it->a;
    if (a->finalized) {
      it = ready_.erase(it);
      continue;
    }
    if (a->has_deadline && now >= a->deadline && !a->doomed) {
      a->doomed = true;
      a->doom_status = RequestStatus::kDeadlineExceeded;
      a->doom_msg = "deadline exceeded after " + std::to_string(a->steps) +
                    "-step rollout ran " +
                    std::to_string(ms_between(a->admit, now)) + " ms";
      a->doom_err = std::make_exception_ptr(
          DeadlineExceededError(a->doom_msg));
    }
    if (a->doomed) {
      it = ready_.erase(it);
      if (a->inflight == 0 && !a->finalized) {
        finalize_locked(a, a->doom_status, a->doom_msg, a->doom_err);
      }
      continue;
    }
    if (now < it->not_before) {
      ++it;
      continue;
    }
    if (pack.empty()) {
      pack_solver_steps = a->solver_steps;
      pack_sampler = a->sampler;
      pack_engine = a->engine;
    } else if (a->solver_steps != pack_solver_steps ||
               a->sampler != pack_sampler || a->engine != pack_engine) {
      // Packs are pure: different registry variants run different
      // networks, and teacher/student sampler families run different
      // schedules — neither ever shares a stacked solve.
      ++it;
      continue;
    }
    if (!a->started) {
      a->started = true;
      a->queue_wait_ms = ms_between(a->admit, now);
    }
    ++a->inflight;

    PackItem item;
    item.a = a;
    item.member = it->member;
    item.fault_attempts = it->fault_attempts;
    const auto mi = static_cast<std::size_t>(it->member);
    item.step = static_cast<std::int64_t>(a->traj[mi].size());
    item.noise = core::MemberCursor{a->seed, it->member, item.step,
                                    a->quarantine_used[mi] != 0}
                     .noise_key();
    item.prev = a->traj[mi].empty() ? &a->init : &a->traj[mi].back();
    pack.push_back(std::move(item));
    it = ready_.erase(it);
  }
  return pack;
}

Pack RequestLedger::checkout(std::int64_t max_items) {
  Pack pack;
  std::vector<PackItem> items = take_pack(max_items);
  if (items.empty()) return pack;

  // Packs are pure (take_pack groups by engine, sampler and solver steps),
  // so the first item's request speaks for the whole pack.
  const detail::ActiveRequest& head = *items.front().a;
  const core::ParallelEnsembleEngine& eng = *head.engine;
  pack.engine = &eng;
  pack.model_index = head.model_index;
  pack.sampler = head.sampler;
  pack.solver_steps_override =
      head.solver_steps == eng.solver_steps(head.sampler) ? 0
                                                          : head.solver_steps;
  const core::ModelConfig& mc = eng.model().config();
  const Shape want{mc.h, mc.w, mc.in_channels - 2 * mc.out_channels};

  // Outside the lock: the in-flight members' init/traj tensors are stable
  // (finalization is deferred while inflight > 0) and forcing fns may be
  // slow. Each (request, step) is fetched once; only successful fetches
  // are shared, so a flaky fetch is retried by its request's next item.
  pack.forcings.reserve(items.size());  // slots point into it
  std::map<std::pair<const detail::ActiveRequest*, std::int64_t>,
           const Tensor*>
      fetched;
  std::vector<PackItem> failed;
  std::vector<std::exception_ptr> errors;
  std::vector<char> retryable;  // a wrong shape would only repeat
  for (PackItem& item : items) {
    const auto key = std::make_pair(item.a.get(), item.step);
    const Tensor* fo = nullptr;
    if (const auto f = fetched.find(key); f != fetched.end()) {
      fo = f->second;
    } else {
      try {
        pack.forcings.push_back(item.a->forcings_at(item.step));
        fo = &pack.forcings.back();
        fetched.emplace(key, fo);
      } catch (...) {
        failed.push_back(std::move(item));
        errors.push_back(std::current_exception());
        retryable.push_back(1);
        continue;
      }
    }
    if (fo->shape() != want) {
      errors.push_back(std::make_exception_ptr(std::invalid_argument(
          "forcings_at(" + std::to_string(item.step) + ") returned " +
          shape_to_string(fo->shape()) + "; model '" + item.a->model_name +
          "' expects [H, W, F] = " + shape_to_string(want))));
      failed.push_back(std::move(item));
      retryable.push_back(0);
      continue;
    }
    pack.slots.push_back(core::MemberSlot{item.prev, fo, item.noise});
    pack.items.push_back(std::move(item));
  }

  if (!failed.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < failed.size(); ++i) {
        --failed[i].a->inflight;
        if (!failed[i].a->finalized) {
          fault_locked(failed[i], errors[i], now, retryable[i] != 0);
        }
      }
      sweep_terminal_locked(failed);
    }
    cv_.notify_all();
  }
  return pack;
}

void RequestLedger::finalize_locked(
    const std::shared_ptr<detail::ActiveRequest>& a, RequestStatus status,
    std::string msg, std::exception_ptr err) {
  a->finalized = true;
  const Clock::time_point now = Clock::now();
  for (std::int64_t m = 0; m < a->members; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    if (!a->member_done[mi]) {
      const auto completed = static_cast<std::int64_t>(a->traj[mi].size());
      pending_member_steps_[a->model_index] -= a->steps - completed;
      a->member_done[mi] = 1;
      a->reports[mi].steps_completed = completed;
      a->reports[mi].ok = false;
    }
  }

  ForecastResult r;
  r.status = status;
  r.members = std::move(a->reports);
  r.degraded = a->degraded;
  r.solver_steps = a->solver_steps;
  r.sampler = a->sampler;
  r.model_served = a->model_name;
  r.members_served = a->members;
  r.queue_wait_ms =
      a->started ? a->queue_wait_ms : ms_between(a->admit, now);
  r.total_ms = ms_between(a->admit, now);
  r.transient_retries = a->transient_retries;
  r.error = std::move(err);
  r.error_message = std::move(msg);
  const bool keep_traj = status == RequestStatus::kOk ||
                         status == RequestStatus::kNumericalError ||
                         a->return_partial;
  if (keep_traj) r.trajectories = std::move(a->traj);
  a->traj.clear();

  switch (status) {
    case RequestStatus::kOk:
      ++stats_.completed;
      ++stats_.per_model[a->model_name].completed;
      break;
    case RequestStatus::kDeadlineExceeded:
      ++stats_.deadline_expired;
      break;
    case RequestStatus::kFault:
      ++stats_.faulted;
      break;
    default:
      break;
  }

  --active_count_;
  actives_.erase(std::remove(actives_.begin(), actives_.end(), a),
                 actives_.end());
  a->promise.set_value(std::move(r));
}

void RequestLedger::fault_locked(const PackItem& item,
                                 const std::exception_ptr& cause,
                                 Clock::time_point now, bool retryable) {
  if (item.a->doomed) return;  // member dropped; finalized in the sweep
  Cursor c{item.a, item.member, item.fault_attempts, {}};
  if (retryable) {
    ++c.fault_attempts;
    ++c.a->transient_retries;
    ++stats_.transient_retries;
  }
  if (!retryable || c.fault_attempts > opts_.max_step_retries) {
    c.a->doomed = true;
    c.a->doom_status = RequestStatus::kFault;
    std::string why = "unknown error";
    if (cause) {
      try {
        std::rethrow_exception(cause);
      } catch (const std::exception& e) {
        why = e.what();
      } catch (...) {
      }
    }
    c.a->doom_msg = retryable ? "transient fault persisted after " +
                                    std::to_string(opts_.max_step_retries) +
                                    " retries: " + why
                              : why;
    c.a->doom_err = cause != nullptr
                        ? cause
                        : std::make_exception_ptr(
                              std::runtime_error(c.a->doom_msg));
    return;
  }
  const double jitter = jitter_rng_.uniform(
      kJitterStream, c.a->id, static_cast<std::uint64_t>(c.fault_attempts));
  const double delay_ms = retry_delay_ms(opts_, c.fault_attempts, jitter);
  c.not_before = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               delay_ms));
  ready_.push_back(std::move(c));
}

void RequestLedger::sweep_terminal_locked(std::span<const PackItem> items) {
  // Terminal transitions for the requests this pack touched. Items whose
  // cursor went back into ready_ belong to requests with pending work, so
  // they cannot be terminal — the checks below simply miss for them.
  for (const PackItem& item : items) {
    const std::shared_ptr<detail::ActiveRequest>& a = item.a;
    if (!a || a->finalized || a->inflight > 0) continue;
    if (a->doomed) {
      finalize_locked(a, a->doom_status, a->doom_msg, a->doom_err);
    } else if (a->members_done == a->members) {
      bool all_ok = true;
      for (const MemberReport& r : a->reports) all_ok &= r.ok;
      if (all_ok) {
        finalize_locked(a, RequestStatus::kOk, {}, nullptr);
      } else {
        std::string msg = "ensemble member(s) diverged:";
        for (const MemberReport& r : a->reports) {
          if (!r.ok) {
            msg += " [member " + std::to_string(r.member) + ": " +
                   r.message + "]";
          }
        }
        finalize_locked(a, RequestStatus::kNumericalError, msg,
                        std::make_exception_ptr(NumericalError(msg)));
      }
    }
  }
}

void RequestLedger::commit_pack(std::vector<PackItem> items, PackOutcome out) {
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point now = Clock::now();
  if (out.solve_error == nullptr && !items.empty()) {
    // Packs never mix variants, so the whole pack's cost feeds exactly one
    // variant's EMA (the serving variant — items carry the post-fallback
    // index).
    const double per_member =
        out.pack_ms / static_cast<double>(items.size());
    double& ema = ema_member_step_ms_[items.front().a->model_index];
    ema = ema == 0.0 ? per_member : 0.8 * ema + 0.2 * per_member;
    ++stats_.packs;
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    PackItem& item = items[i];
    const std::shared_ptr<detail::ActiveRequest>& a = item.a;
    const auto mi = static_cast<std::size_t>(item.member);
    --a->inflight;

    if (a->finalized) continue;  // lost a race with a shutdown finalize

    if (out.solve_error != nullptr || i >= out.next.size()) {
      fault_locked(item, out.solve_error, now);
      continue;
    }
    if (a->doomed) continue;  // member dropped; finalized in the sweep

    Tensor result = std::move(out.next[i]);
    if (!tensor::all_finite(result)) {
      if (!a->quarantine_used[mi]) {
        // Quarantine: retry this step once on a salted noise stream. The
        // member's batch-mates are untouched — kernels never mix batch
        // slabs, so their slabs are bitwise what they would be in any
        // other pack.
        a->quarantine_used[mi] = 1;
        a->reports[mi].quarantined = true;
        ++stats_.quarantined_members;
        ready_.push_back(
            Cursor{a, item.member, item.fault_attempts, Clock::time_point{}});
      } else {
        a->reports[mi].ok = false;
        a->reports[mi].steps_completed =
            static_cast<std::int64_t>(a->traj[mi].size());
        a->reports[mi].message =
            "non-finite state at step " + std::to_string(a->traj[mi].size()) +
            " persisted after quarantine retry";
        a->member_done[mi] = 1;
        ++a->members_done;
        ++stats_.failed_members;
        pending_member_steps_[a->model_index] -=
            a->steps - static_cast<std::int64_t>(a->traj[mi].size());
      }
      continue;
    }

    a->traj[mi].push_back(std::move(result));
    --pending_member_steps_[a->model_index];
    ++stats_.member_steps;
    if (static_cast<std::int64_t>(a->traj[mi].size()) == a->steps) {
      a->reports[mi].ok = true;
      a->reports[mi].steps_completed = a->steps;
      a->member_done[mi] = 1;
      ++a->members_done;
    } else if (a->has_deadline && now >= a->deadline) {
      a->doomed = true;
      a->doom_status = RequestStatus::kDeadlineExceeded;
      a->doom_msg = "deadline exceeded at step " +
                    std::to_string(a->traj[mi].size()) + " of " +
                    std::to_string(a->steps);
      a->doom_err =
          std::make_exception_ptr(DeadlineExceededError(a->doom_msg));
    } else {
      ready_.push_back(
          Cursor{a, item.member, item.fault_attempts, Clock::time_point{}});
    }
  }

  sweep_terminal_locked(items);
  cv_.notify_all();
}

void RequestLedger::requeue_items(std::vector<PackItem> items) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (PackItem& item : items) {
      const std::shared_ptr<detail::ActiveRequest>& a = item.a;
      --a->inflight;
      if (a->finalized) continue;
      const auto mi = static_cast<std::size_t>(item.member);
      if (a->member_done[mi]) continue;
      stats_.requeued_member_steps +=
          a->steps - static_cast<std::int64_t>(a->traj[mi].size());
      // The cursor resumes from its last *committed* step: item.step was
      // never committed, so re-resolution at the next checkout lands on
      // the same step with the same noise key — bitwise re-execution.
      ready_.push_back(Cursor{a, item.member, item.fault_attempts,
                              Clock::time_point{}});
    }
    sweep_terminal_locked(items);
  }
  cv_.notify_all();
}

void RequestLedger::note_workers_lost(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.workers_lost += n;
}

void RequestLedger::drain_all(RequestStatus status, const std::string& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  ready_.clear();
  if (status == RequestStatus::kWorkerLost) ++stats_.quorum_drains;
  const auto remaining = actives_;
  for (const std::shared_ptr<detail::ActiveRequest>& a : remaining) {
    if (!a->finalized) {
      finalize_locked(a, status, msg, status_error(status, msg));
    }
  }
}

void RequestLedger::refuse_admissions(RequestStatus status,
                                      const std::string& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  refusing_ = true;
  refuse_status_ = status;
  refuse_msg_ = msg;
}

void RequestLedger::resume_admissions() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    refusing_ = false;
    refuse_msg_.clear();
  }
  cv_.notify_all();
}

void RequestLedger::note_worker_joined() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.workers_joined;
}

void RequestLedger::note_unpark() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.unparks;
}

void RequestLedger::note_fingerprint_reject() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.registry_fingerprint_rejects;
}

bool RequestLedger::begin_stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return false;
    stopping_ = true;
  }
  cv_.notify_all();
  return true;
}

ServerStats RequestLedger::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace aeris::serving
