#include "aeris/tensor/recycle.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "aeris/core/ensemble.hpp"
#include "aeris/tensor/ops.hpp"

namespace aeris {
namespace {

constexpr std::size_t kBytes = 123 * sizeof(float);

TEST(TensorRecycle, ReusesFreedBufferInsideScope) {
  TensorRecycleScope scope;
  const float* first = nullptr;
  {
    Tensor a({123}, 7.0f);
    first = a.data();
  }
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), kBytes);
  Tensor other({124});  // a different size never takes the parked buffer
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), kBytes);
  Tensor b({123});
  EXPECT_EQ(b.data(), first);
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), 0u);
  for (std::int64_t i = 0; i < b.numel(); ++i) ASSERT_EQ(b[i], 0.0f) << i;
}

TEST(TensorRecycle, NothingRetainedOutsideOrAfterScope) {
  { Tensor a({123}); }
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), 0u);
  {
    TensorRecycleScope scope;
    for (std::int64_t n = 1; n <= 64; ++n) {
      Tensor a({n, 3});
      Tensor b = a;  // two live buffers of this size, both parked
    }
    EXPECT_EQ(TensorRecycleScope::retained_bytes(),
              2 * 3 * sizeof(float) * (64 * 65 / 2));
  }
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), 0u);
  { Tensor a({123}); }
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), 0u);
}

TEST(TensorRecycle, NestedScopesReleaseOnce) {
  TensorRecycleScope outer;
  const float* parked = nullptr;
  {
    TensorRecycleScope inner;
    Tensor a({123});
    parked = a.data();
  }
  // The inner scope owns nothing: the buffer stays parked in the outer one.
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), kBytes);
  {
    TensorRecycleScope inner;
    Tensor b({123});
    EXPECT_EQ(b.data(), parked);
  }
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), kBytes);
}

TEST(TensorRecycle, EscapedTensorFreedOnAnotherThread) {
  Tensor escaped;
  {
    TensorRecycleScope scope;
    escaped = Tensor({123}, 3.0f);
  }
  // Freed on a thread without a scope: straight back to the heap.
  std::thread plain([t = std::move(escaped)]() mutable {
    EXPECT_EQ(t[5], 3.0f);
    t = Tensor();
    EXPECT_EQ(TensorRecycleScope::retained_bytes(), 0u);
  });
  plain.join();

  // Freed on a thread with its own scope while the allocating scope is
  // still open: the freeing thread parks and reuses it, the allocating
  // thread's list never sees it.
  TensorRecycleScope scope;
  Tensor shipped({123}, 4.0f);
  const float* buf = shipped.data();
  std::thread scoped([t = std::move(shipped), buf]() mutable {
    TensorRecycleScope local;
    t = Tensor();
    EXPECT_EQ(TensorRecycleScope::retained_bytes(), kBytes);
    Tensor reuse({123});
    EXPECT_EQ(reuse.data(), buf);
  });
  scoped.join();
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), 0u);
}

namespace ens {

core::ModelConfig cfg() {
  core::ModelConfig c;
  c.h = 8;
  c.w = 8;
  c.in_channels = 8;  // 2 * V + F with V = 3, F = 2
  c.out_channels = 3;
  c.dim = 16;
  c.depth = 2;
  c.heads = 2;
  c.ffn_hidden = 32;
  c.win_h = 4;
  c.win_w = 4;
  c.cond_dim = 16;
  c.time_features = 8;
  return c;
}

core::AerisModel model() {
  core::AerisModel m(cfg(), 5);
  Philox rng(105);
  for (nn::Param* p : m.params()) {
    rng.fill_normal(p->value, 7, 0);
    scale_(p->value, 0.1f);
  }
  return m;
}

std::vector<Tensor> step(const core::ParallelEnsembleEngine& engine,
                         const Tensor& prev, const Tensor& forcings) {
  std::vector<core::MemberSlot> slots(2);
  for (std::size_t m = 0; m < slots.size(); ++m) {
    slots[m].prev = &prev;
    slots[m].forcings = &forcings;
    slots[m].noise = core::MemberKey{9, m * 4096};
  }
  return engine.step_pack(slots);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

}  // namespace ens

// A forward that throws mid-solve (forcings with the wrong channel count
// pass the slot checks but not the model's input check) unwinds through
// the scope: nothing stays parked, and the next solve is unaffected.
TEST(TensorRecycle, ExceptionMidStepPackReleasesEverything) {
  const core::AerisModel model = ens::model();
  const core::ParallelEnsembleEngine engine(model, core::TrigFlowConfig{},
                                            core::TrigSamplerConfig{}, 9);
  Philox rng(3);
  Tensor prev({8, 8, 3}), forcings({8, 8, 2}), bad_forcings({8, 8, 3});
  rng.fill_normal(prev, 1, 0);
  rng.fill_normal(forcings, 1, 1);
  const std::vector<Tensor> want = ens::step(engine, prev, forcings);

  EXPECT_THROW(ens::step(engine, prev, bad_forcings), std::invalid_argument);
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), 0u);
  {
    // Inside a caller's scope the throw leaves the caller's list usable.
    TensorRecycleScope outer;
    EXPECT_THROW(ens::step(engine, prev, bad_forcings), std::invalid_argument);
    const std::vector<Tensor> got = ens::step(engine, prev, forcings);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_TRUE(ens::bitwise_equal(got[m], want[m])) << m;
    }
  }
  EXPECT_EQ(TensorRecycleScope::retained_bytes(), 0u);

  const std::vector<Tensor> again = ens::step(engine, prev, forcings);
  for (std::size_t m = 0; m < want.size(); ++m) {
    EXPECT_TRUE(ens::bitwise_equal(again[m], want[m])) << m;
  }
}

}  // namespace
}  // namespace aeris
