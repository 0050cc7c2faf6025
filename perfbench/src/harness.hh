/**
 * @file
 * Shared plumbing of the end-to-end benchmark: the command line, the
 * repetition rule every timed phase follows, correctness bookkeeping,
 * and the in-memory span log of traced runs.
 *
 * Timing rule: inputs are generated before any clock starts (except
 * in table3, where core::BenchmarkRunner builds its own streams inside
 * each run); one untimed warm-up repetition runs as part of set-up;
 * then a fixed number of whole repetitions runs (repetitionsFor), and
 * each phase reports the best of its timed repetitions — per slice
 * where the phase can be cut into slices of equal work (SliceBest).
 * The host is shared and its noise comes in bursts, so the fastest
 * repetition is the one least disturbed by neighbours.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bgp/speaker.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count());
}

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Parsed command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Timed repetitions a run measures at the least. */
constexpr int kMinTimedReps = 3;

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Correctness bookkeeping of one run: operations attempted and
 * failed, plus failed checks. The first few messages go to stderr so
 * a failing run says why.
 */
class Checker
{
  public:
    /** Record a check; returns @p ok. */
    bool
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            ++violations_;
            if (violations_ <= 10)
                std::cerr << "check failed: " << what << "\n";
        }
        return ok;
    }

    void attempted(uint64_t n) { attempted_ += n; }
    void failed(uint64_t n) { failed_ += n; }

    bool correct() const { return violations_ == 0; }
    uint64_t attemptedOps() const { return attempted_; }
    uint64_t failedOps() const { return failed_; }

  private:
    uint64_t violations_ = 0;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * What an untraced workload run reports. phaseA/phaseB are the two
 * timed phases of the workload (see README.md for what each one is
 * per workload); `named` carries the same timings as the workload's
 * own rates for the human-readable report.
 */
struct Outcome
{
    double setupS = 0.0;
    double phaseAS = std::numeric_limits<double>::infinity();
    double phaseBS = std::numeric_limits<double>::infinity();
    double ribBytesPerRoute = 0.0;
    int timedReps = 0;
    std::vector<Metric> named;
};

/** Best-of accumulator for one phase. */
inline void
keepBest(double &best, double sample)
{
    best = std::min(best, sample);
}

/**
 * Best time of each slice of a phase across repetitions. A slice is a
 * stretch of the phase whose work is the same in every repetition
 * (the program is deterministic and every repetition starts from the
 * same state), so its fastest repetition is its least disturbed one;
 * the phase reports the sum of those bests. A burst of host noise
 * shorter than a repetition then stays out of the result unless it
 * hit the same slice in every repetition.
 */
class SliceBest
{
  public:
    void
    record(const std::vector<double> &slices)
    {
        if (best_.size() < slices.size())
            best_.resize(slices.size(),
                         std::numeric_limits<double>::infinity());
        for (size_t i = 0; i < slices.size(); ++i)
            keepBest(best_[i], slices[i]);
    }

    double
    total() const
    {
        double sum = 0.0;
        for (double b : best_)
            sum += b;
        return best_.empty() ? std::numeric_limits<double>::infinity() : sum;
    }

  private:
    std::vector<double> best_;
};

/**
 * Timed repetitions of a run of @p seconds, for a workload whose
 * repetition takes @p nominalRepS on the reference host (README.md).
 * The count depends on the requested run length only, not on how
 * fast the program under test is, so every build of the program
 * takes its best over the same number of samples.
 */
inline int
repetitionsFor(double seconds, double nominalRepS)
{
    return std::max(kMinTimedReps, int(seconds / nominalRepS));
}

/** Run @p reps timed repetitions; @p rep receives the index. */
template <typename Rep>
int
timedRepetitions(int reps, Rep &&rep)
{
    for (int i = 0; i < reps; ++i)
        rep(i);
    return reps;
}

/**
 * Span log of a traced run: name, start, end and parent of every span
 * the benchmark opens around a call into a layer. Spans stay in
 * memory; the per-layer metrics are computed from them at exit.
 */
class SpanLog
{
  public:
    static constexpr uint32_t kNoParent = ~uint32_t(0);

    struct Span
    {
        uint32_t name;
        uint32_t parent;
        uint64_t beginNs;
        uint64_t endNs;
    };

    /** Totals of all spans with one name. */
    struct Totals
    {
        uint64_t count = 0;
        uint64_t totalNs = 0;
        /** Duration minus the time covered by direct child spans. */
        uint64_t selfNs = 0;
    };

    /** Id of a span name (registered once, before the hot loop). */
    uint32_t
    intern(const std::string &name)
    {
        auto it = std::find(names_.begin(), names_.end(), name);
        if (it != names_.end())
            return uint32_t(it - names_.begin());
        names_.push_back(name);
        return uint32_t(names_.size() - 1);
    }

    uint32_t
    open(uint32_t name)
    {
        const uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
        spans_.push_back(Span{name, parent, nowNs(), 0});
        stack_.push_back(uint32_t(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(uint32_t span)
    {
        spans_[span].endNs = nowNs();
        stack_.pop_back();
    }

    void
    clear()
    {
        spans_.clear();
        stack_.clear();
    }

    Totals totals(const std::string &name) const;

  private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
};

/** RAII span; a null log makes it a single branch. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, uint32_t name) : log_(log)
    {
        if (log_)
            span_ = log_->open(name);
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close(span_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    uint32_t span_ = 0;
};

/** Entries held by all of a speaker's RIBs (Loc, Adj-In, Adj-Out). */
size_t ribEntries(const bgpbench::bgp::BgpSpeaker &speaker);

/** Process peak resident set (VmHWM) in MB. */
double peakRssMb();

/** Wire-level OPEN/KEEPALIVE handshake bringing @p id to Established. */
void establishPeer(bgpbench::bgp::BgpSpeaker &speaker,
                   bgpbench::bgp::PeerId id, bgpbench::bgp::AsNumber asn,
                   bgpbench::bgp::RouterId routerId);

/** @name Workloads
 *  run() measures the end-to-end metrics (untraced); profile()
 *  appends the workload's per-layer metrics from traced repetitions,
 *  including obs.trace_overhead_ratio.<workload>.
 *  @{
 */
Outcome runFeed(const Options &options, Clock::time_point start,
                Checker &check);
void profileFeed(const Options &options, double budgetS,
                 std::vector<Metric> &layers, Checker &check);

Outcome runServe(const Options &options, Clock::time_point start,
                 Checker &check);
void profileServe(const Options &options, double budgetS,
                  std::vector<Metric> &layers, Checker &check);

Outcome runMesh(const Options &options, Clock::time_point start,
                Checker &check);
void profileMesh(const Options &options, double budgetS,
                 std::vector<Metric> &layers, Checker &check);

Outcome runTable3(const Options &options, Clock::time_point start,
                  Checker &check);
void profileTable3(const Options &options, double budgetS,
                   std::vector<Metric> &layers, Checker &check);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
