/**
 * @file
 * A callable that counts how often it is copied, moved, destroyed and
 * called, for tests that pin how many times the scheduling path moves
 * an event's capture.
 */

#ifndef GRIFFIN_TESTS_SIM_MOVE_PROBE_HH
#define GRIFFIN_TESTS_SIM_MOVE_PROBE_HH

#include <stdexcept>

namespace griffin::test {

/** What happened to every instance descended from one probe. */
struct ProbeCounts
{
    int copies = 0;
    int moves = 0;
    int destroyed = 0;
    int calls = 0;
    /** Instances alive now, not counting the one the test built. */
    int live() const { return copies + moves - destroyed; }
};

/**
 * The probe itself; schedule it as an lvalue, so the queue's one
 * construction is a copy and every move the path adds shows in
 * ProbeCounts::moves. With @c throws set, calling it throws.
 */
struct MoveProbe
{
    ProbeCounts *counts;
    bool throws = false;

    explicit MoveProbe(ProbeCounts &c, bool throwing = false)
        : counts(&c), throws(throwing)
    {
    }
    MoveProbe(const MoveProbe &o) noexcept
        : counts(o.counts), throws(o.throws)
    {
        ++counts->copies;
    }
    MoveProbe(MoveProbe &&o) noexcept : counts(o.counts), throws(o.throws)
    {
        ++counts->moves;
    }
    MoveProbe &operator=(const MoveProbe &) = delete;
    MoveProbe &operator=(MoveProbe &&) = delete;
    ~MoveProbe() { ++counts->destroyed; }

    void
    operator()()
    {
        ++counts->calls;
        if (throws)
            throw std::runtime_error("probe");
    }
};

} // namespace griffin::test

#endif // GRIFFIN_TESTS_SIM_MOVE_PROBE_HH
