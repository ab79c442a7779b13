#include "format/csr.h"

#include <algorithm>

#include "support/logging.h"

namespace sparsetir {
namespace format {

Csr
csrFromDense(int64_t rows, int64_t cols, const std::vector<float> &dense)
{
    ICHECK_EQ(static_cast<int64_t>(dense.size()), rows * cols);
    Csr m;
    m.rows = rows;
    m.cols = cols;
    m.indptr.reserve(rows + 1);
    m.indptr.push_back(0);
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            float v = dense[r * cols + c];
            if (v != 0.0f) {
                m.indices.push_back(static_cast<int32_t>(c));
                m.values.push_back(v);
            }
        }
        m.indptr.push_back(static_cast<int32_t>(m.indices.size()));
    }
    return m;
}

std::vector<float>
csrToDense(const Csr &m)
{
    std::vector<float> dense(m.rows * m.cols, 0.0f);
    for (int64_t r = 0; r < m.rows; ++r) {
        for (int32_t p = m.indptr[r]; p < m.indptr[r + 1]; ++p) {
            dense[r * m.cols + m.indices[p]] += m.values[p];
        }
    }
    return dense;
}

Csr
csrTranspose(const Csr &m)
{
    Csr t;
    t.rows = m.cols;
    t.cols = m.rows;
    t.indptr.assign(m.cols + 1, 0);
    // Counting sort by column.
    for (int32_t c : m.indices) {
        ++t.indptr[c + 1];
    }
    for (int64_t c = 0; c < m.cols; ++c) {
        t.indptr[c + 1] += t.indptr[c];
    }
    t.indices.resize(m.nnz());
    t.values.resize(m.nnz());
    std::vector<int32_t> cursor(t.indptr.begin(), t.indptr.end() - 1);
    for (int64_t r = 0; r < m.rows; ++r) {
        for (int32_t p = m.indptr[r]; p < m.indptr[r + 1]; ++p) {
            int32_t c = m.indices[p];
            int32_t out = cursor[c]++;
            t.indices[out] = static_cast<int32_t>(r);
            t.values[out] = m.values[p];
        }
    }
    return t;
}

bool
csrValid(const Csr &m)
{
    if (static_cast<int64_t>(m.indptr.size()) != m.rows + 1) {
        return false;
    }
    if (m.indptr.front() != 0 ||
        m.indptr.back() != static_cast<int32_t>(m.indices.size())) {
        return false;
    }
    if (m.indices.size() != m.values.size()) {
        return false;
    }
    for (int64_t r = 0; r < m.rows; ++r) {
        if (m.indptr[r] > m.indptr[r + 1]) {
            return false;
        }
        for (int32_t p = m.indptr[r]; p < m.indptr[r + 1]; ++p) {
            if (m.indices[p] < 0 || m.indices[p] >= m.cols) {
                return false;
            }
            if (p + 1 < m.indptr[r + 1] &&
                m.indices[p] >= m.indices[p + 1]) {
                return false;
            }
        }
    }
    return true;
}

void
checkCsr(const Csr &m)
{
    USER_CHECK(m.rows >= 0 && m.cols >= 0)
        << "malformed CSR: shape " << m.rows << " x " << m.cols
        << " is negative";
    USER_CHECK(static_cast<int64_t>(m.indptr.size()) == m.rows + 1)
        << "malformed CSR: indptr has " << m.indptr.size()
        << " entries, rows + 1 = " << m.rows + 1 << " expected";
    USER_CHECK(m.indptr[0] == 0)
        << "malformed CSR: indptr[0] = " << m.indptr[0]
        << ", must be 0";
    for (int64_t r = 0; r < m.rows; ++r) {
        USER_CHECK(m.indptr[r] <= m.indptr[r + 1])
            << "malformed CSR: indptr[" << r + 1 << "] = "
            << m.indptr[r + 1] << " < indptr[" << r
            << "] = " << m.indptr[r] << ", indptr must never decrease";
    }
    USER_CHECK(m.indptr[m.rows] == m.nnz())
        << "malformed CSR: indptr[" << m.rows
        << "] = " << m.indptr[m.rows] << ", must equal nnz = "
        << m.nnz();
    for (int64_t q = 0; q < m.nnz(); ++q) {
        USER_CHECK(m.indices[q] >= 0 && m.indices[q] < m.cols)
            << "malformed CSR: indices[" << q << "] = " << m.indices[q]
            << " is outside [0, cols = " << m.cols << ")";
    }
    USER_CHECK(static_cast<int64_t>(m.values.size()) == m.nnz())
        << "malformed CSR: values has " << m.values.size()
        << " entries, must equal nnz = " << m.nnz();
}

float
csrAt(const Csr &m, int64_t r, int64_t c)
{
    ICHECK_GE(r, 0);
    ICHECK_LT(r, m.rows);
    auto begin = m.indices.begin() + m.indptr[r];
    auto end = m.indices.begin() + m.indptr[r + 1];
    auto it = std::lower_bound(begin, end, static_cast<int32_t>(c));
    if (it != end && *it == c) {
        return m.values[it - m.indices.begin()];
    }
    return 0.0f;
}

} // namespace format
} // namespace sparsetir
