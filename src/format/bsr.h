/**
 * @file
 * Block Compressed Sparse Row storage (square blocks).
 */

#ifndef SPARSETIR_FORMAT_BSR_H_
#define SPARSETIR_FORMAT_BSR_H_

#include <cstdint>
#include <vector>

#include "format/csr.h"

namespace sparsetir {
namespace format {

/**
 * BSR matrix: CSR over blockSize x blockSize dense blocks. Block
 * values are stored block-major, row-major within a block (the layout
 * eq. 6-8 produce for the [IO, JO, II, JI] axis composition).
 */
struct Bsr
{
    int64_t rows = 0;
    int64_t cols = 0;
    int32_t blockSize = 1;
    int64_t blockRows = 0;
    int64_t blockCols = 0;
    std::vector<int32_t> indptr;   // blockRows + 1
    std::vector<int32_t> indices;  // nnz blocks
    std::vector<float> values;     // nnzBlocks * blockSize^2

    int64_t
    nnzBlocks() const
    {
        return static_cast<int64_t>(indices.size());
    }

    /** Fraction of stored values that are padding zeros. */
    double paddingRatio() const;
};

/** Convert CSR to BSR with the given block size (rows/cols padded). */
Bsr bsrFromCsr(const Csr &m, int32_t block_size);

/**
 * Check an untrusted BSR operand in O(nnz blocks) before it reaches a
 * kernel: blockSize is positive; indptr has blockRows + 1 entries,
 * starts at 0, never decreases and ends at nnz blocks; every block
 * column index is in [0, blockCols); values has nnz blocks *
 * blockSize^2 entries. Throws UserError naming the array, the index
 * and the rule.
 */
void checkBsr(const Bsr &m);

/** Expand to row-major dense (original rows x cols). */
std::vector<float> bsrToDense(const Bsr &m);

} // namespace format
} // namespace sparsetir

#endif // SPARSETIR_FORMAT_BSR_H_
