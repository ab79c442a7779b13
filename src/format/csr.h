/**
 * @file
 * Compressed Sparse Row storage and conversions.
 *
 * The format library operates on concrete host data; kernels bind its
 * arrays (indptr/indices/values) to the handle parameters of lowered
 * SparseTIR functions.
 */

#ifndef SPARSETIR_FORMAT_CSR_H_
#define SPARSETIR_FORMAT_CSR_H_

#include <cstdint>
#include <vector>

namespace sparsetir {
namespace format {

/** CSR matrix with float values and int32 structure. */
struct Csr
{
    int64_t rows = 0;
    int64_t cols = 0;
    std::vector<int32_t> indptr;   // rows + 1
    std::vector<int32_t> indices;  // nnz, sorted per row
    std::vector<float> values;     // nnz

    int64_t nnz() const { return static_cast<int64_t>(indices.size()); }

    /** Length of one row. */
    int32_t
    rowLength(int64_t r) const
    {
        return indptr[r + 1] - indptr[r];
    }
};

/** Build CSR from a row-major dense matrix (exact zeros dropped). */
Csr csrFromDense(int64_t rows, int64_t cols,
                 const std::vector<float> &dense);

/** Expand to a row-major dense matrix. */
std::vector<float> csrToDense(const Csr &m);

/** Transpose (also converts CSR <-> CSC views). */
Csr csrTranspose(const Csr &m);

/** Validate structural invariants (sorted indices, monotone indptr). */
bool csrValid(const Csr &m);

/**
 * Check an untrusted CSR operand in O(nnz) before it reaches a
 * kernel: indptr has rows + 1 entries, starts at 0, never decreases
 * and ends at nnz; every index is in [0, cols); values has nnz
 * entries. Throws UserError naming the array, the index and the rule.
 * (Sortedness within a row is not required.)
 */
void checkCsr(const Csr &m);

/** Value lookup at (r, c); zero when absent. */
float csrAt(const Csr &m, int64_t r, int64_t c);

} // namespace format
} // namespace sparsetir

#endif // SPARSETIR_FORMAT_CSR_H_
