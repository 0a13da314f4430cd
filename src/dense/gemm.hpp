// Local dense matrix multiplication (the paper's GEMM, reported under "misc").
#pragma once

#include "src/dense/matrix.hpp"

namespace cagnet {

/// Whether an operand enters the product transposed.
enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C.
///
/// op(A) is (m x k), op(B) is (k x n), C must be (m x n) and must not be A
/// or B (an aliased call throws Error). After the beta pass, every C
/// element adds its products (alpha * op(A) element) * op(B) element one
/// at a time in ascending k order, whatever the thread count or CPU. A
/// transposed B is first copied row-major into per-thread scratch, so the
/// innermost loop always streams rows of op(B) and C.
void gemm(Trans trans_a, Trans trans_b, Real alpha, const Matrix& a,
          const Matrix& b, Real beta, Matrix& c);

/// Convenience allocating form: returns op(A) * op(B).
Matrix matmul(const Matrix& a, const Matrix& b, Trans trans_a = Trans::kNo,
              Trans trans_b = Trans::kNo);

}  // namespace cagnet
