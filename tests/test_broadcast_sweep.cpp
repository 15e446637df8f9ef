// Parameterized property sweep over broadcasting shape pairs: forward
// values against a reference implementation and gradcheck for every
// binary op. Broadcasting backward (reduce_to over broadcast axes) is the
// subtlest part of the autodiff engine — the split-layer ⊕ of eq. (8)
// depends on it.
#include <gtest/gtest.h>

#include "ad/gradcheck.hpp"
#include "ad/ops.hpp"
#include "util/rng.hpp"

namespace ad = mf::ad;
namespace ops = mf::ad::ops;
using ad::Shape;
using ad::Tensor;

namespace {

struct ShapePair {
  const char* name;
  Shape a, b;
};

Tensor randt(const Shape& shape, unsigned seed, double lo, double hi) {
  mf::util::Rng rng(seed);
  Tensor t = Tensor::zeros(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = rng.uniform(lo, hi);
  return t;
}

/// Reference broadcast evaluation via explicit multi-indexing.
double ref_at(const Tensor& t, const Shape& out_shape,
              const std::vector<int64_t>& idx) {
  const auto& s = t.shape();
  const std::size_t off = out_shape.size() - s.size();
  int64_t flat = 0;
  const auto strides = ad::strides_of(s);
  for (std::size_t d = 0; d < s.size(); ++d) {
    const int64_t i = s[d] == 1 ? 0 : idx[d + off];
    flat += i * strides[d];
  }
  return t.flat(flat);
}

}  // namespace

class BroadcastSweep : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastSweep, ForwardMatchesReference) {
  const auto& p = GetParam();
  Tensor a = randt(p.a, 1, -2, 2);
  Tensor b = randt(p.b, 2, 0.5, 2.5);  // positive: safe for div
  const Shape out_shape = ops::broadcast_shape(p.a, p.b);
  Tensor sum = ops::add(a, b);
  Tensor prod = ops::mul(a, b);
  Tensor quot = ops::div(a, b);
  ASSERT_EQ(sum.shape(), out_shape);

  std::vector<int64_t> idx(out_shape.size(), 0);
  for (int64_t flat = 0; flat < sum.numel(); ++flat) {
    const double av = ref_at(a, out_shape, idx);
    const double bv = ref_at(b, out_shape, idx);
    EXPECT_NEAR(sum.flat(flat), av + bv, 1e-14);
    EXPECT_NEAR(prod.flat(flat), av * bv, 1e-14);
    EXPECT_NEAR(quot.flat(flat), av / bv, 1e-14);
    for (int64_t d = static_cast<int64_t>(out_shape.size()) - 1; d >= 0; --d) {
      if (++idx[static_cast<std::size_t>(d)] <
          out_shape[static_cast<std::size_t>(d)])
        break;
      idx[static_cast<std::size_t>(d)] = 0;
    }
  }
}

TEST_P(BroadcastSweep, GradcheckAllBinaryOps) {
  const auto& p = GetParam();
  Tensor a = randt(p.a, 3, -2, 2);
  Tensor b = randt(p.b, 4, 0.5, 2.5);
  struct OpCase {
    const char* name;
    Tensor (*fn)(const Tensor&, const Tensor&);
  };
  for (const auto& op : {OpCase{"add", ops::add}, OpCase{"sub", ops::sub},
                         OpCase{"mul", ops::mul}, OpCase{"div", ops::div}}) {
    auto f = [&](const std::vector<Tensor>& in) {
      return ops::sum(ops::square(op.fn(in[0], in[1])));
    };
    auto r = ad::gradcheck(f, {a.detach(), b.detach()});
    EXPECT_TRUE(r.ok) << p.name << "/" << op.name
                      << " max_rel_err=" << r.max_rel_err;
  }
}

TEST_P(BroadcastSweep, BroadcastToReduceToRoundTrip) {
  const auto& p = GetParam();
  const Shape out_shape = ops::broadcast_shape(p.a, p.b);
  Tensor a = randt(p.a, 5, -1, 1);
  Tensor big = ops::broadcast_to(a, out_shape);
  ASSERT_EQ(big.shape(), out_shape);
  // reduce_to(broadcast_to(a)) multiplies each element by the number of
  // copies made along broadcast axes.
  Tensor back = ops::reduce_to(big, p.a);
  const double copies = static_cast<double>(ad::numel_of(out_shape)) /
                        static_cast<double>(ad::numel_of(p.a));
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(back.flat(i), a.flat(i) * copies, 1e-12 * copies);
  }
}

TEST_P(BroadcastSweep, SecondOrderThroughBroadcastMul) {
  const auto& p = GetParam();
  Tensor a = randt(p.a, 6, -1, 1);
  Tensor b = randt(p.b, 7, -1, 1);
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::mul(in[0], in[1])));
  };
  auto r = ad::gradcheck_second_order(f, {a, b}, 1e-5, 2e-4);
  EXPECT_TRUE(r.ok) << p.name << " max_rel_err=" << r.max_rel_err;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastSweep,
    ::testing::Values(
        ShapePair{"same_1d", {4}, {4}},
        ShapePair{"same_2d", {2, 3}, {2, 3}},
        ShapePair{"vec_vs_matrix", {2, 3}, {3}},
        ShapePair{"scalar_vs_matrix", {2, 3}, {}},
        ShapePair{"row_vs_col", {3, 1}, {1, 4}},
        ShapePair{"middle_axis", {2, 1, 3}, {2, 4, 3}},
        ShapePair{"split_layer_pattern", {2, 1, 5}, {2, 7, 5}},
        ShapePair{"leading_ones", {1, 1, 3}, {2, 4, 3}},
        ShapePair{"rank_mismatch_3v1", {2, 3, 4}, {4}},
        ShapePair{"rank_mismatch_3v2", {2, 3, 4}, {3, 1}},
        ShapePair{"both_last_axis_one", {2, 3, 1}, {3, 1}},
        ShapePair{"rank4_mixed", {2, 1, 3, 4}, {5, 1, 1}}),
    [](const auto& info) { return info.param.name; });
