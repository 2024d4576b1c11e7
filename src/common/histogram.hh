/**
 * @file
 * Small fixed-bucket histogram used for recall-distance and stall-length
 * distributions (paper Figs. 1, 5, 7, 18).
 */

#ifndef TACSIM_COMMON_HISTOGRAM_HH
#define TACSIM_COMMON_HISTOGRAM_HH

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace tacsim {

/**
 * Histogram over user-supplied bucket upper bounds, with a catch-all
 * overflow bucket and running sum/max so means are available too.
 */
class Histogram
{
  public:
    /** @param bounds inclusive upper bound of each bucket, ascending. */
    explicit Histogram(std::vector<std::uint64_t> bounds = {10, 50, 100,
                                                            500})
        : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
    {}

    /** Record one sample. */
    void
    add(std::uint64_t v)
    {
        auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
        ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
        sum_ += v;
        ++n_;
        max_ = std::max(max_, v);
    }

    /** Total number of samples. */
    std::uint64_t count() const { return n_; }
    /** Sum of all samples (exact, unlike mean() * count()). */
    std::uint64_t sum() const { return sum_; }
    /** Mean of all samples (0 if empty). */
    double mean() const { return n_ ? double(sum_) / double(n_) : 0.0; }
    /** Maximum sample seen (0 if empty). */
    std::uint64_t max() const { return max_; }

    /** Number of buckets including the overflow bucket. */
    std::size_t buckets() const { return counts_.size(); }
    /** Raw count in bucket @p i. */
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }

    /** Fraction of samples in bucket @p i (0 if empty). */
    double
    fraction(std::size_t i) const
    {
        return n_ ? double(counts_[i]) / double(n_) : 0.0;
    }

    /** Fraction of samples <= @p bound, a bucket bound (else throws). */
    double
    fractionAtOrBelow(std::uint64_t bound) const
    {
        // Bucket counts cannot answer another bound: the partial sum up to
        // the nearest lower bound would read like a valid fraction.
        if (!std::binary_search(bounds_.begin(), bounds_.end(), bound))
            throw std::invalid_argument(
                "Histogram::fractionAtOrBelow: " + std::to_string(bound) +
                " is not a bucket bound");
        if (!n_)
            return 0.0;
        std::uint64_t c = 0;
        for (std::size_t i = 0; i < bounds_.size(); ++i) {
            if (bounds_[i] <= bound)
                c += counts_[i];
        }
        return double(c) / double(n_);
    }

    /** Human-readable bucket label, e.g. "11-50" or ">500". */
    std::string
    label(std::size_t i) const
    {
        if (i == bounds_.size())
            return ">" + std::to_string(bounds_.back());
        std::uint64_t lo = i == 0 ? 0 : bounds_[i - 1] + 1;
        return std::to_string(lo) + "-" + std::to_string(bounds_[i]);
    }

    /** Add the samples of @p o, whose bucket bounds must equal ours. */
    void
    merge(const Histogram &o)
    {
        if (o.bounds_ != bounds_)
            throw std::invalid_argument("Histogram::merge: bounds differ");
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += o.counts_[i];
        sum_ += o.sum_;
        n_ += o.n_;
        max_ = std::max(max_, o.max_);
    }

    /** Forget all samples. */
    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        sum_ = n_ = max_ = 0;
    }

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t sum_ = 0;
    std::uint64_t n_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace tacsim

#endif // TACSIM_COMMON_HISTOGRAM_HH
