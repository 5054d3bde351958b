#include "nn/linear.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace fgro {

namespace {

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
// Runtime ISA dispatch for the GEMM panel kernel: the portable binary keeps
// the x86-64 baseline (SSE2) as its default clone and upgrades to AVX2 or
// AVX-512 on hosts that have them. No clone enables FMA, and the build pins
// -ffp-contract=off, so every lane computes mul-then-add in the exact
// scalar order on every ISA — dispatch can never change a prediction bit.
// ThreadSanitizer builds keep the baseline kernel only: the clones resolve
// through an IFUNC, which crashes TSan binaries before main with GCC.
#define FGRO_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define FGRO_KERNEL_CLONES
#endif

#if defined(__GNUC__) || defined(__clang__)
#define FGRO_HAVE_VEC 1
// 8 doubles per logical vector: one zmm under AVX-512, split into two ymm
// ops under AVX2 and four xmm ops at the SSE2 baseline by the compiler.
typedef double V8 __attribute__((vector_size(64)));

inline V8 LoadV8(const double* p) {
  V8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// One 16-row panel block of y = x W^T + b. `panel` holds the 16 input
/// rows column-major (panel[c * 16 + lane] = feature c of row lane), so
/// each weight element is broadcast against 16 contiguous doubles — and
/// each weight row is streamed once per 16 batch rows. Lane `lane`
/// accumulates bias + sum over ascending c — the exact scalar-path chain;
/// the vector ops only run the 16 independent chains side by side.
FGRO_KERNEL_CLONES
void GemmPanelKernel(const double* panel, const double* w, const double* b,
                     int in, int out, double* const* y_rows) {
  for (int r = 0; r < out; ++r) {
    const double* wr = w + static_cast<size_t>(r) * static_cast<size_t>(in);
    V8 acc0 = {b[r], b[r], b[r], b[r], b[r], b[r], b[r], b[r]};
    V8 acc1 = acc0;
    const double* p = panel;
    for (int c = 0; c < in; ++c, p += 16) {
      const double wc = wr[c];
      const V8 wv = {wc, wc, wc, wc, wc, wc, wc, wc};
      acc0 += wv * LoadV8(p);
      acc1 += wv * LoadV8(p + 8);
    }
    double lanes[16];
    std::memcpy(lanes, &acc0, sizeof(acc0));
    std::memcpy(lanes + 8, &acc1, sizeof(acc1));
    for (int lane = 0; lane < 16; ++lane) y_rows[lane][r] = lanes[lane];
  }
}
#endif  // __GNUC__ || __clang__

}  // namespace

Linear::Linear(int in_dim, int out_dim, Rng* rng) {
  weight_.Resize(out_dim, in_dim);
  weight_.InitXavier(rng);
  bias_.Resize(out_dim, 1);
}

Vec Linear::Forward(const Vec& x) const {
  Vec y;
  ForwardInto(x, &y);
  return y;
}

void Linear::ForwardInto(const Vec& x, Vec* y) const {
  FGRO_CHECK(static_cast<int>(x.size()) == weight_.cols)
      << x.size() << " vs " << weight_.cols;
  y->resize(static_cast<size_t>(weight_.rows));
  for (int r = 0; r < weight_.rows; ++r) {
    double acc = bias_.value[static_cast<size_t>(r)];
    const double* wr =
        &weight_.value[static_cast<size_t>(r) * static_cast<size_t>(weight_.cols)];
    for (int c = 0; c < weight_.cols; ++c) acc += wr[c] * x[static_cast<size_t>(c)];
    (*y)[static_cast<size_t>(r)] = acc;
  }
}

void Linear::ForwardBatch(const Mat& x, Mat* y) const {
  FGRO_CHECK(x.cols == weight_.cols) << x.cols << " vs " << weight_.cols;
  const int in = weight_.cols;
  const int out = weight_.rows;
  y->Resize(x.rows, out);
  const double* w = weight_.value.data();
  const double* b = bias_.value.data();
  int i = 0;
#ifdef FGRO_HAVE_VEC
  // 16-row panels: each block's inputs are repacked column-major
  // (panel[c * 16 + lane] = row `i + lane`, feature c) so GemmPanelKernel
  // can run 16 independent accumulator chains in SIMD lanes. Bit-identity
  // constrains each chain's order, not the chains' interleaving, so the
  // lanes are legal. A remainder of kMinPanelRows or more rows runs as one
  // zero-padded panel whose spare lanes write to a sink (a lane's chain
  // never reads another lane); shorter remainders fall through to the
  // blocks below.
  constexpr int kLanes = 16;
  constexpr int kMinPanelRows = 6;
  static thread_local std::vector<double> panel;
  static thread_local std::vector<double> sink;
  if (x.rows >= kMinPanelRows) {
    panel.resize(static_cast<size_t>(kLanes) * static_cast<size_t>(in));
    double* pd = panel.data();
    while (x.rows - i >= kMinPanelRows) {
      const int rows = std::min(kLanes, x.rows - i);
      if (rows < kLanes) {
        std::fill(panel.begin(), panel.end(), 0.0);
        sink.resize(static_cast<size_t>(out));
      }
      double* y_rows[kLanes];
      for (int lane = 0; lane < kLanes; ++lane) {
        if (lane >= rows) {
          y_rows[lane] = sink.data();
          continue;
        }
        const double* xr = x.Row(i + lane);
        for (int c = 0; c < in; ++c) {
          pd[static_cast<size_t>(c) * kLanes + static_cast<size_t>(lane)] =
              xr[c];
        }
        y_rows[lane] = y->Row(i + lane);
      }
      GemmPanelKernel(pd, w, b, in, out, y_rows);
      i += rows;
    }
  }
#endif
  for (; i + 4 <= x.rows; i += 4) {
    const double* x0 = x.Row(i);
    const double* x1 = x.Row(i + 1);
    const double* x2 = x.Row(i + 2);
    const double* x3 = x.Row(i + 3);
    double* y0 = y->Row(i);
    double* y1 = y->Row(i + 1);
    double* y2 = y->Row(i + 2);
    double* y3 = y->Row(i + 3);
    for (int r = 0; r < out; ++r) {
      const double* wr = w + static_cast<size_t>(r) * static_cast<size_t>(in);
      double a0 = b[r], a1 = b[r], a2 = b[r], a3 = b[r];
      for (int c = 0; c < in; ++c) {
        const double wv = wr[c];
        a0 += wv * x0[c];
        a1 += wv * x1[c];
        a2 += wv * x2[c];
        a3 += wv * x3[c];
      }
      y0[r] = a0;
      y1[r] = a1;
      y2[r] = a2;
      y3[r] = a3;
    }
  }
  for (; i < x.rows; ++i) {
    const double* xr = x.Row(i);
    double* yr = y->Row(i);
    for (int r = 0; r < out; ++r) {
      const double* wr = w + static_cast<size_t>(r) * static_cast<size_t>(in);
      double acc = b[r];
      for (int c = 0; c < in; ++c) acc += wr[c] * xr[c];
      yr[r] = acc;
    }
  }
}

void Linear::BackwardInto(const Vec& x, const Vec& dy, Vec* dx) {
  for (int r = 0; r < weight_.rows; ++r) {
    const double g = dy[static_cast<size_t>(r)];
    if (g == 0.0) continue;
    double* gw = &weight_.grad[static_cast<size_t>(r) *
                               static_cast<size_t>(weight_.cols)];
    const double* wr = &weight_.value[static_cast<size_t>(r) *
                                      static_cast<size_t>(weight_.cols)];
    for (int c = 0; c < weight_.cols; ++c) {
      gw[c] += g * x[static_cast<size_t>(c)];
      (*dx)[static_cast<size_t>(c)] += g * wr[c];
    }
    bias_.grad[static_cast<size_t>(r)] += g;
  }
}

Vec Linear::Backward(const Vec& x, const Vec& dy) {
  Vec dx(x.size(), 0.0);
  BackwardInto(x, dy, &dx);
  return dx;
}

Vec Relu(const Vec& x) {
  Vec y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
  return y;
}

Vec ReluBackward(const Vec& y, const Vec& dy) {
  Vec dx(y.size());
  for (size_t i = 0; i < y.size(); ++i) dx[i] = y[i] > 0.0 ? dy[i] : 0.0;
  return dx;
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double Tanh(double x) { return std::tanh(x); }

}  // namespace fgro
