// Dense row-major matrix — the only tensor type used by the neural-network substrate.
// Sized for the small MLPs in this project (tens of thousands of parameters). The
// matrix is templated on its scalar type: training runs entirely on MatrixT<double>
// (aliased as Matrix, the historical name), while the float32 deployment-inference
// path (src/rl/inference_policy.h) runs the same kernels on MatrixT<float> — halving
// the weight bytes per inference and doubling the SIMD lanes without a second kernel
// implementation. Only these two scalar types are instantiated (see matrix.cc).
// The multiply kernels are cache-blocked over the reduction dimension and every kernel
// has an out-parameter ("Into") variant so hot loops can run allocation-free in steady
// state: a matrix resized to a shape it has held before reuses its storage.
#ifndef MOCC_SRC_NN_MATRIX_H_
#define MOCC_SRC_NN_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "src/common/rng.h"

namespace mocc {

template <typename T>
class MatrixT {
 public:
  using Scalar = T;

  MatrixT() = default;
  // Creates a rows x cols matrix filled with `fill`.
  MatrixT(size_t rows, size_t cols, T fill = T(0));

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  T operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::vector<T>& storage() { return data_; }
  const std::vector<T>& storage() const { return data_; }

  // Reshapes to rows x cols. Storage capacity is reused and never shrinks, so
  // resizing a workspace back to a previously-held shape allocates nothing.
  // Element values are unspecified after a shape change.
  void Resize(size_t rows, size_t cols);

  // Becomes an element-wise copy of `other` (Resize + copy; no allocation when
  // capacity suffices).
  void CopyFrom(const MatrixT& other);

  // Becomes an element-wise static_cast copy of a matrix with a different scalar
  // type — the double->float conversion behind the deployment inference path.
  template <typename U>
  void CastFrom(const MatrixT<U>& other) {
    Resize(other.rows(), other.cols());
    const U* src = other.data();
    for (size_t i = 0; i < data_.size(); ++i) {
      data_[i] = static_cast<T>(src[i]);
    }
  }

  // Sets every element to `v`.
  void Fill(T v);

  // Fills with N(0, stddev) draws.
  void FillNormal(Rng* rng, double stddev);

  // Fills with Xavier/Glorot-uniform draws for a (fan_in, fan_out) weight matrix,
  // appropriate for tanh activations.
  void FillXavier(Rng* rng);

  // Returns one row as a vector.
  std::vector<T> Row(size_t r) const;

  // Copies `values` (size == cols()) into row `r`.
  void SetRow(size_t r, const std::vector<T>& values);

  // Copies `values[0..cols())` into row `r`.
  void SetRow(size_t r, const T* values);

  // Pointer to the start of row `r`.
  T* RowPtr(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  const T* RowPtr(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

// The historical name: the double-precision training matrix.
using Matrix = MatrixT<double>;

// Allocation-free kernels: the output is resized in place (capacity reuse) and the
// output must not alias either input. For a fixed output element, every kernel
// accumulates contributions in ascending reduction order, so results are
// bit-for-bit identical across batch sizes and blocking factors (per scalar type;
// float and double results differ by rounding, which the precision test harness
// bounds — tests/nn_float32_test.cc).
//
// The per-element recipe is explicit wherever training or inference bits depend
// on it, so neither the compiler's contraction choices nor the SIMD tier can
// move a trained checkpoint:
//   * forward (RowMatVecBias and the batched MatMulBias paths): an ascending
//     fma chain from 0, then the bias add;
//   * training's dW (MatMulTransposeAAccumulate<double>): an ascending fma chain
//     seeded with the existing gradient;
//   * training's dX (MatMulTransposeBInto<double>): from +0.0, add each
//     separately rounded product (mul, then add — never fused).
// The double kernels are runtime-dispatched (src/nn/simd/dispatch.h) and every
// tier computes these recipes bit-for-bit. The float backward instantiations
// keep generic loops whose fusion is the compiler's choice; only the
// float-vs-double tolerance tests use them.

// C = A * B. Requires A.cols() == B.rows().
template <typename T>
void MatMulInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c);

// C = A * B + 1·bias (every output row is initialized with the 1 x B.cols() row
// vector `bias`, then accumulated): the fused dense-layer kernel, saving a
// separate bias pass over C. Rows of A are processed in register-tiled pairs
// whose column blocks of B are consumed back-to-back while L1-hot (the
// batched-serving path's bandwidth saver); every row runs through the same tile
// instantiations as RowMatVecBias, so batched and single-row forwards produce
// bit-identical values per row.
template <typename T>
void MatMulBiasInto(const MatrixT<T>& a, const MatrixT<T>& b, const MatrixT<T>& bias,
                    MatrixT<T>* c);

// Raw-pointer variant of MatMulBiasInto for caller-owned row-major buffers:
// C[m x B.cols()] = A[m x B.rows()] · B + 1·bias. This is the allocation- and
// copy-free core MatMulBiasInto forwards to; MlpT::ForwardBatchRows feeds each
// layer's input buffer to it directly instead of staging a MatrixT copy.
template <typename T>
void MatMulBiasRowsInto(const T* a, size_t m, const MatrixT<T>& b,
                        const MatrixT<T>& bias, T* c);

// y[0..out) = x[0..in) · w (in x out, row-major) + b[0..out), register-tiled:
// fixed-size accumulator blocks stay in SIMD registers across the reduction.
// Per output j the accumulation order is ascending k, then the bias (the seed's
// MatMul + AddRowBias order).
template <typename T>
void RowMatVecBias(const T* x, const T* w, const T* b, T* y, size_t in, size_t out);

// C = A * B^T. Requires A.cols() == B.cols().
template <typename T>
void MatMulTransposeBInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c);

// C = the leading `cols` columns of A * B^T (A.rows() x cols; cols <= B.rows()),
// each bit-identical to the same column of the full product. A layer's dX only
// needs the input columns an upstream network reads.
template <typename T>
void MatMulTransposeBInto(const MatrixT<T>& a, const MatrixT<T>& b, size_t cols,
                          MatrixT<T>* c);

// C = A^T * B. Requires A.rows() == B.rows().
template <typename T>
void MatMulTransposeAInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c);

// C += A^T * B without materializing the product (gradient accumulation).
// C must already be A.cols() x B.cols().
template <typename T>
void MatMulTransposeAAccumulate(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c);

// sums = column sums of `m` as a 1 x cols matrix.
template <typename T>
void ColumnSumsInto(const MatrixT<T>& m, MatrixT<T>* sums);

// sums += column sums of `m`. `sums` must already be 1 x m.cols().
template <typename T>
void ColumnSumsAccumulate(const MatrixT<T>& m, MatrixT<T>* sums);

// Allocating convenience wrappers around the Into kernels.
template <typename T>
MatrixT<T> MatMul(const MatrixT<T>& a, const MatrixT<T>& b);
template <typename T>
MatrixT<T> MatMulTransposeB(const MatrixT<T>& a, const MatrixT<T>& b);
template <typename T>
MatrixT<T> MatMulTransposeA(const MatrixT<T>& a, const MatrixT<T>& b);
template <typename T>
MatrixT<T> ColumnSums(const MatrixT<T>& m);

// a += scale * b, elementwise. Requires identical shapes.
template <typename T>
void AddScaled(MatrixT<T>* a, const MatrixT<T>& b, T scale = T(1));

// Adds row-vector `bias` (1 x cols) to every row of `m`.
template <typename T>
void AddRowBias(MatrixT<T>* m, const MatrixT<T>& bias);

// Elementwise product, in place: a ⊙= b.
template <typename T>
void HadamardInPlace(MatrixT<T>* a, const MatrixT<T>& b);

// Frobenius norm (accumulated in double regardless of T).
template <typename T>
double FrobeniusNorm(const MatrixT<T>& m);

// The kernels are instantiated for exactly these scalar types in matrix.cc.
extern template class MatrixT<double>;
extern template class MatrixT<float>;

}  // namespace mocc

#endif  // MOCC_SRC_NN_MATRIX_H_
