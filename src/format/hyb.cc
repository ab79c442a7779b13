#include "format/hyb.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace sparsetir {
namespace format {

int64_t
Hyb::storedEntries() const
{
    int64_t total = 0;
    for (const auto &partition : buckets) {
        for (const auto &ell : partition) {
            total += ell.numRows() * ell.width;
        }
    }
    return total;
}

int64_t
Hyb::paddedZeros() const
{
    int64_t total = 0;
    for (const auto &partition : buckets) {
        for (const auto &ell : partition) {
            total += ell.paddedZeros();
        }
    }
    return total;
}

double
Hyb::paddingRatio() const
{
    int64_t stored = storedEntries();
    return stored == 0
               ? 0.0
               : static_cast<double>(paddedZeros()) /
                     static_cast<double>(stored);
}

int32_t
hybDefaultK(const Csr &m)
{
    if (m.rows == 0 || m.nnz() == 0) {
        return 0;
    }
    double avg = static_cast<double>(m.nnz()) /
                 static_cast<double>(m.rows);
    int32_t k = static_cast<int32_t>(std::ceil(std::log2(std::max(
        avg, 1.0))));
    return std::max(k, 0);
}

Hyb
hybFromCsr(const Csr &m, int32_t c, int32_t k)
{
    ICHECK_GT(c, 0);
    // An out-of-range column would fall in no partition and vanish
    // from the result; a short values array would be read past its
    // end.
    checkCsr(m);
    if (k < 0) {
        k = hybDefaultK(m);
    }
    Hyb out;
    out.numPartitions = c;
    out.maxWidthLog2 = k;
    out.rows = m.rows;
    out.cols = m.cols;
    out.buckets.resize(c);

    int64_t partition_width = (m.cols + c - 1) / c;
    int32_t max_width = 1 << k;

    for (int32_t p = 0; p < c; ++p) {
        int64_t col_lo = static_cast<int64_t>(p) * partition_width;
        int64_t col_hi = std::min<int64_t>(col_lo + partition_width,
                                           m.cols);
        // Slice this column partition into a temporary CSR, keeping
        // each entry's position in the source values array.
        Csr slice;
        std::vector<int32_t> slice_src;
        slice.rows = m.rows;
        slice.cols = m.cols;  // keep absolute column coordinates
        slice.indptr.push_back(0);
        for (int64_t r = 0; r < m.rows; ++r) {
            for (int32_t q = m.indptr[r]; q < m.indptr[r + 1]; ++q) {
                if (m.indices[q] >= col_lo && m.indices[q] < col_hi) {
                    slice.indices.push_back(m.indices[q]);
                    slice.values.push_back(m.values[q]);
                    slice_src.push_back(q);
                }
            }
            slice.indptr.push_back(
                static_cast<int32_t>(slice.indices.size()));
        }

        // Long rows split into width-2^k chunks: build a synthetic
        // "row list" of (original row, start offset, length).
        struct Chunk
        {
            int32_t row;
            int32_t start;
            int32_t len;
        };
        std::vector<std::vector<Chunk>> bucket_chunks(k + 1);
        for (int64_t r = 0; r < slice.rows; ++r) {
            int32_t len = slice.rowLength(r);
            if (len == 0) {
                continue;
            }
            if (len > max_width) {
                for (int32_t start = 0; start < len;
                     start += max_width) {
                    bucket_chunks[k].push_back(
                        {static_cast<int32_t>(r), start,
                         std::min(max_width, len - start)});
                }
                continue;
            }
            // Bucket b: 2^(b-1) < len <= 2^b.
            int32_t b = 0;
            while ((1 << b) < len) {
                ++b;
            }
            bucket_chunks[b].push_back({static_cast<int32_t>(r), 0, len});
        }

        std::vector<Ell> partition;
        partition.reserve(k + 1);
        for (int32_t b = 0; b <= k; ++b) {
            int32_t width = 1 << b;
            Ell ell;
            ell.rows = m.rows;
            ell.cols = m.cols;
            ell.width = width;
            for (const Chunk &chunk : bucket_chunks[b]) {
                ell.rowIndices.push_back(chunk.row);
                int32_t base = slice.indptr[chunk.row] + chunk.start;
                int32_t last_index = 0;
                for (int32_t j = 0; j < width; ++j) {
                    if (j < chunk.len) {
                        last_index = slice.indices[base + j];
                        ell.colIndices.push_back(slice.indices[base + j]);
                        ell.values.push_back(slice.values[base + j]);
                        ell.sourcePos.push_back(slice_src[base + j]);
                    } else {
                        ell.colIndices.push_back(last_index);
                        ell.values.push_back(0.0f);
                        ell.sourcePos.push_back(-1);
                    }
                }
            }
            partition.push_back(std::move(ell));
        }
        out.buckets[p] = std::move(partition);
    }
    return out;
}

std::vector<float>
hybToDense(const Hyb &m)
{
    std::vector<float> dense(m.rows * m.cols, 0.0f);
    for (const auto &partition : m.buckets) {
        for (const auto &ell : partition) {
            ellAddToDense(ell, &dense);
        }
    }
    return dense;
}

} // namespace format
} // namespace sparsetir
