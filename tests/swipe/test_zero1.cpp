#include "aeris/swipe/zero1.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "aeris/tensor/ops.hpp"

namespace aeris::swipe {
namespace {

TEST(ShardRange, CoversWithoutOverlap) {
  for (int group : {1, 2, 3, 4, 7}) {
    std::size_t prev_end = 0;
    for (int r = 0; r < group; ++r) {
      const auto [b, e] = Zero1Optimizer::shard_range(10, group, r);
      EXPECT_EQ(b, prev_end);
      prev_end = e;
    }
    EXPECT_EQ(prev_end, 10u);
  }
  EXPECT_THROW(Zero1Optimizer::shard_range(4, 0, 0), std::invalid_argument);
  EXPECT_THROW(Zero1Optimizer::shard_range(4, 2, 2), std::invalid_argument);
}

TEST(ShardRange, MoreRanksThanParamsLeavesEmptyShards) {
  const auto [b, e] = Zero1Optimizer::shard_range(2, 4, 2);
  EXPECT_EQ(b, e);  // empty shard is fine
}

// Rank `rank`'s gradient for element j of param `param` at `step`: a
// multiple of 2^-8 below 1 in magnitude, so every partial sum the
// reduce-scatter ring forms over a few ranks is exact and the summation
// order cannot move a bit.
float dyadic_grad(int rank, int param, int step, std::int64_t j) {
  const int k = ((rank + 1) * 131 + param * 17 + step * 29 +
                 static_cast<int>(j) * 7) % 255;
  return static_cast<float>(k - 127) / 256.0f;
}

// Params of ragged sizes, seeded identically on every rank and in the
// reference.
std::vector<nn::Param> make_params(int nparams) {
  std::vector<nn::Param> params;
  params.reserve(static_cast<std::size_t>(nparams));
  for (int i = 0; i < nparams; ++i) {
    params.emplace_back("p" + std::to_string(i), Shape{2 + (i % 3)});
    Philox(7).fill_normal(params.back().value, 1,
                          static_cast<std::uint64_t>(i));
  }
  return params;
}

nn::ParamList list_of(std::vector<nn::Param>& params) {
  nn::ParamList list;
  for (auto& p : params) list.push_back(&p);
  return list;
}

// The ZeRO-1 contract: `steps` sharded steps over `nranks` ranks leave
// every rank with exactly the values single-rank AdamW reaches on the
// scaled gradient sums — bit for bit. The reference gradient is formed the
// way reduce_grads forms it: the (exact) sum times grad_scale.
void expect_matches_single_rank_adamw(int nranks, int nparams, int steps) {
  const float grad_scale = 1.0f / static_cast<float>(nranks);
  std::vector<nn::Param> ref_params = make_params(nparams);
  const nn::ParamList ref_list = list_of(ref_params);
  nn::AdamW ref_opt(ref_list);
  for (int step = 0; step < steps; ++step) {
    for (int i = 0; i < nparams; ++i) {
      nn::Param& p = ref_params[static_cast<std::size_t>(i)];
      for (std::int64_t j = 0; j < p.numel(); ++j) {
        float sum = 0.0f;
        for (int r = 0; r < nranks; ++r) sum += dyadic_grad(r, i, step, j);
        p.grad[j] = sum * grad_scale;
      }
    }
    ref_opt.step(0.01f);
  }
  const std::vector<float> want = nn::flatten_values(ref_list);

  World world(nranks);
  std::vector<std::vector<float>> got(static_cast<std::size_t>(nranks));
  world.run([&](int rank) {
    std::vector<nn::Param> params = make_params(nparams);
    const nn::ParamList list = list_of(params);
    Zero1Optimizer opt(list);
    std::vector<int> members(static_cast<std::size_t>(nranks));
    std::iota(members.begin(), members.end(), 0);
    Communicator group(world, members, rank, 1);
    for (int step = 0; step < steps; ++step) {
      for (int i = 0; i < nparams; ++i) {
        nn::Param& p = params[static_cast<std::size_t>(i)];
        for (std::int64_t j = 0; j < p.numel(); ++j) {
          p.grad[j] = dyadic_grad(rank, i, step, j);
        }
      }
      opt.step(group, 0.01f, grad_scale);
    }
    got[static_cast<std::size_t>(rank)] = nn::flatten_values(list);
  });

  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], want)
        << nranks << " ranks, " << nparams << " params, " << steps
        << " steps: rank " << r;
  }
}

TEST(Zero1, MatchesSingleRankAdamW) {
  expect_matches_single_rank_adamw(/*nranks=*/4, /*nparams=*/5, /*steps=*/1);
  // Uneven shards (3 ranks over 7 ragged params) and a moving step clock.
  expect_matches_single_rank_adamw(/*nranks=*/3, /*nparams=*/7, /*steps=*/3);
}

TEST(Zero1, RepeatedStepsStayConsistent) {
  const int nranks = 2;
  World world(nranks);
  std::vector<std::vector<float>> got(static_cast<std::size_t>(nranks));
  world.run([&](int rank) {
    nn::Param p("p", Shape{4});
    p.value.fill(1.0f);
    nn::ParamList list = {&p};
    Zero1Optimizer opt(list);
    Communicator group(world, {0, 1}, rank, 1);
    for (int step = 0; step < 5; ++step) {
      for (std::int64_t j = 0; j < 4; ++j) {
        p.grad[j] = 2.0f * (p.value[j] - 3.0f);
      }
      opt.step(group, 0.1f, 0.5f);  // two identical replicas
    }
    got[static_cast<std::size_t>(rank)] = nn::flatten_values(list);
  });
  EXPECT_EQ(got[0], got[1]);
  // Moving toward the target 3.
  EXPECT_GT(got[0][0], 1.0f);
}

TEST(Zero1, SingleRankGroupIsPlainAdamW) {
  World world(1);
  world.run([&](int rank) {
    nn::Param p("p", Shape{2});
    p.value.fill(1.0f);
    p.grad.fill(1.0f);
    nn::ParamList list = {&p};
    Zero1Optimizer opt(list);
    Communicator group(world, {0}, rank, 1);
    opt.step(group, 0.1f, 1.0f);

    nn::Param q("q", Shape{2});
    q.value.fill(1.0f);
    q.grad.fill(1.0f);
    nn::ParamList qlist = {&q};
    nn::AdamW ref(qlist);
    ref.step(0.1f);
    EXPECT_TRUE(p.value.allclose(q.value, 1e-7f));
  });
}

}  // namespace
}  // namespace aeris::swipe
