#include "format/bsr.h"

#include <algorithm>
#include <map>

#include "support/logging.h"

namespace sparsetir {
namespace format {

double
Bsr::paddingRatio()
    const
{
    if (values.empty()) {
        return 0.0;
    }
    int64_t zeros = 0;
    for (float v : values) {
        if (v == 0.0f) {
            ++zeros;
        }
    }
    return static_cast<double>(zeros) / static_cast<double>(values.size());
}

void
checkBsr(const Bsr &m)
{
    USER_CHECK(m.blockSize > 0 && m.blockRows >= 0 && m.blockCols >= 0)
        << "malformed BSR: block size " << m.blockSize << ", "
        << m.blockRows << " x " << m.blockCols
        << " blocks; the block size must be positive and the block "
           "counts non-negative";
    USER_CHECK(static_cast<int64_t>(m.indptr.size()) == m.blockRows + 1)
        << "malformed BSR: indptr has " << m.indptr.size()
        << " entries, blockRows + 1 = " << m.blockRows + 1 << " expected";
    USER_CHECK(m.indptr[0] == 0)
        << "malformed BSR: indptr[0] = " << m.indptr[0] << ", must be 0";
    for (int64_t r = 0; r < m.blockRows; ++r) {
        USER_CHECK(m.indptr[r] <= m.indptr[r + 1])
            << "malformed BSR: indptr[" << r + 1 << "] = "
            << m.indptr[r + 1] << " < indptr[" << r << "] = "
            << m.indptr[r] << ", indptr must never decrease";
    }
    USER_CHECK(m.indptr[m.blockRows] == m.nnzBlocks())
        << "malformed BSR: indptr[" << m.blockRows << "] = "
        << m.indptr[m.blockRows] << ", must equal nnz blocks = "
        << m.nnzBlocks();
    for (int64_t q = 0; q < m.nnzBlocks(); ++q) {
        USER_CHECK(m.indices[q] >= 0 && m.indices[q] < m.blockCols)
            << "malformed BSR: indices[" << q << "] = " << m.indices[q]
            << " is outside [0, blockCols = " << m.blockCols << ")";
    }
    int64_t bs2 = static_cast<int64_t>(m.blockSize) * m.blockSize;
    USER_CHECK(static_cast<int64_t>(m.values.size()) == m.nnzBlocks() * bs2)
        << "malformed BSR: values has " << m.values.size()
        << " entries, must equal nnz blocks * blockSize^2 = "
        << m.nnzBlocks() * bs2;
}

Bsr
bsrFromCsr(const Csr &m, int32_t block_size)
{
    ICHECK_GT(block_size, 0);
    Bsr out;
    out.rows = m.rows;
    out.cols = m.cols;
    out.blockSize = block_size;
    out.blockRows = (m.rows + block_size - 1) / block_size;
    out.blockCols = (m.cols + block_size - 1) / block_size;
    out.indptr.assign(out.blockRows + 1, 0);

    int64_t bs2 = static_cast<int64_t>(block_size) * block_size;
    for (int64_t br = 0; br < out.blockRows; ++br) {
        // Gather the non-zero block columns of this block row.
        std::map<int32_t, std::vector<float>> blocks;
        for (int64_t r = br * block_size;
             r < std::min<int64_t>((br + 1) * block_size, m.rows); ++r) {
            for (int32_t p = m.indptr[r]; p < m.indptr[r + 1]; ++p) {
                int32_t bc = m.indices[p] / block_size;
                auto &block = blocks[bc];
                if (block.empty()) {
                    block.assign(bs2, 0.0f);
                }
                int64_t ii = r - br * block_size;
                int64_t ji = m.indices[p] - int64_t(bc) * block_size;
                block[ii * block_size + ji] = m.values[p];
            }
        }
        for (auto &[bc, block] : blocks) {
            out.indices.push_back(bc);
            out.values.insert(out.values.end(), block.begin(),
                              block.end());
        }
        out.indptr[br + 1] = static_cast<int32_t>(out.indices.size());
    }
    return out;
}

std::vector<float>
bsrToDense(const Bsr &m)
{
    std::vector<float> dense(m.rows * m.cols, 0.0f);
    int64_t bs = m.blockSize;
    for (int64_t br = 0; br < m.blockRows; ++br) {
        for (int32_t p = m.indptr[br]; p < m.indptr[br + 1]; ++p) {
            int64_t bc = m.indices[p];
            const float *block = &m.values[int64_t(p) * bs * bs];
            for (int64_t ii = 0; ii < bs; ++ii) {
                for (int64_t ji = 0; ji < bs; ++ji) {
                    int64_t r = br * bs + ii;
                    int64_t c = bc * bs + ji;
                    if (r < m.rows && c < m.cols) {
                        dense[r * m.cols + c] = block[ii * bs + ji];
                    }
                }
            }
        }
    }
    return dense;
}

} // namespace format
} // namespace sparsetir
