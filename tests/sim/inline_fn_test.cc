/**
 * @file
 * Unit tests for sim::InlineFn: inline storage, move semantics,
 * capture destruction, argument passing, the boxed() escape hatch
 * for captures that exceed the inline budget, and exact ownership
 * through trivial and non-trivial relocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/sim/inline_fn.hh"

using griffin::sim::boxed;
using griffin::sim::InlineFn;

namespace {

/** Counts live instances so tests can assert capture destruction. */
struct Tracked
{
    static int live;
    Tracked() { ++live; }
    Tracked(const Tracked &) { ++live; }
    Tracked(Tracked &&) noexcept { ++live; }
    ~Tracked() { --live; }
};

int Tracked::live = 0;

} // namespace

TEST(InlineFn, DefaultConstructedIsEmpty)
{
    InlineFn<void()> fn;
    EXPECT_FALSE(fn);
    InlineFn<void()> null_fn(nullptr);
    EXPECT_FALSE(null_fn);
}

TEST(InlineFn, InvokesStoredCallable)
{
    int hits = 0;
    InlineFn<void()> fn([&] { ++hits; });
    EXPECT_TRUE(fn);
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFn, PassesArgumentsAndReturnsValues)
{
    InlineFn<int(int, int)> add([](int a, int b) { return a + b; });
    EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFn, MoveTransfersTheCallable)
{
    int hits = 0;
    InlineFn<void()> a([&] { ++hits; });
    InlineFn<void()> b(std::move(a));
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): empty by contract
    EXPECT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);
}

TEST(InlineFn, MoveAssignReplacesAndDestroysTheOldTarget)
{
    {
        InlineFn<void()> a([t = Tracked{}] {});
        EXPECT_EQ(Tracked::live, 1);
        a = InlineFn<void()>([] {});
        EXPECT_EQ(Tracked::live, 0);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, DestructionReleasesTheCapture)
{
    {
        InlineFn<void()> fn([t = Tracked{}] {});
        EXPECT_EQ(Tracked::live, 1);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, AssigningNullptrClears)
{
    InlineFn<void()> fn([t = Tracked{}] {});
    EXPECT_EQ(Tracked::live, 1);
    fn = nullptr;
    EXPECT_FALSE(fn);
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, MutableLambdaStateAdvances)
{
    InlineFn<int()> counter([n = 0]() mutable { return ++n; });
    EXPECT_EQ(counter(), 1);
    EXPECT_EQ(counter(), 2);
    EXPECT_EQ(counter(), 3);
}

TEST(InlineFn, MoveOnlyCaptureThreadsThrough)
{
    auto p = std::make_unique<int>(41);
    InlineFn<int()> fn([p = std::move(p)] { return *p + 1; });
    InlineFn<int()> moved(std::move(fn));
    EXPECT_EQ(moved(), 42);
}

TEST(InlineFn, BoxedCarriesOversizedCaptures)
{
    // A capture bigger than the inline budget cannot be stored
    // directly (that is a compile error by design); boxed() moves it
    // behind a single unique_ptr whose 8-byte handle always fits.
    struct Big
    {
        long payload[32];
    };
    Big big{};
    big.payload[0] = 7;
    big.payload[31] = 35;
    static_assert(sizeof(Big) > InlineFn<long()>::capacity);
    InlineFn<long()> fn(
        boxed([big] { return big.payload[0] + big.payload[31]; }));
    EXPECT_EQ(fn(), 42);
}

TEST(InlineFn, BoxedReleasesTheCaptureOnDestruction)
{
    struct Pad
    {
        long payload[32] = {};
    };
    {
        InlineFn<void()> fn(
            boxed([t = Tracked{}, pad = Pad{}] { (void)pad; }));
        EXPECT_EQ(Tracked::live, 1);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, SelfContainedEventShape)
{
    // The dominant event-queue shape: a wrapper event owning the
    // next continuation. The continuation (itself an InlineFn) can
    // never fit inline, so it rides in a box; the wrapper's capture
    // is just the box pointer.
    int hits = 0;
    InlineFn<void()> inner([&] { ++hits; });
    InlineFn<void()> outer(
        boxed([inner = std::move(inner)]() mutable { inner(); }));
    outer();
    EXPECT_EQ(hits, 1);
}

// --- Relocation ------------------------------------------------------
// A trivially copyable capture moves as a fixed capacity-byte memcpy
// and is never destroyed through the ops table; every other capture
// moves through its own move constructor. Either way ownership must
// come out exact.

TEST(InlineFn, TriviallyCopyableCaptureRoundTripsBitForBit)
{
    struct Words
    {
        std::uint64_t w[7];
        void
        operator()(std::uint64_t *out) const
        {
            std::copy(std::begin(w), std::end(w), out);
        }
    };
    static_assert(std::is_trivially_copyable_v<Words>);
    using Fn = InlineFn<void(std::uint64_t *)>;
    static_assert(sizeof(Words) == Fn::capacity);
    Words in{};
    for (std::size_t i = 0; i < 7; ++i)
        in.w[i] = 0x0123456789abcdefull * (i + 1) ^ (~0ull >> i);

    Fn a(in);
    Fn b(std::move(a));
    Fn c;
    c = std::move(b);
    Fn d(std::move(c));
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): empty by contract
    EXPECT_FALSE(b); // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(c); // NOLINT(bugprone-use-after-move)
    std::uint64_t out[7] = {};
    d(out);
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(out[i], in.w[i]) << "word " << i;

    // A small trivially copyable capture survives the full-buffer copy.
    InlineFn<int()> small([x = 17, y = 25] { return x + y; });
    InlineFn<int()> moved(std::move(small));
    EXPECT_EQ(moved(), 42);
}

TEST(InlineFn, SharedPtrCaptureKeepsAnExactUseCount)
{
    auto token = std::make_shared<int>(7);
    InlineFn<long()> a([token] { return token.use_count(); });
    EXPECT_EQ(token.use_count(), 2);
    InlineFn<long()> b(std::move(a));
    EXPECT_EQ(token.use_count(), 2);
    InlineFn<long()> c;
    c = std::move(b);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(c(), 2);
    // Assigning over a live target releases the old capture first.
    InlineFn<long()> d([token] { return 0L; });
    EXPECT_EQ(token.use_count(), 3);
    d = std::move(c);
    EXPECT_EQ(token.use_count(), 2);
    d = nullptr;
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFn, UniquePtrCaptureKeepsItsOwnership)
{
    auto owned = std::make_unique<Tracked>();
    const Tracked *const raw = owned.get();
    InlineFn<const Tracked *()> a([p = std::move(owned)] { return p.get(); });
    InlineFn<const Tracked *()> b(std::move(a));
    InlineFn<const Tracked *()> c;
    c = std::move(b);
    EXPECT_EQ(Tracked::live, 1);
    EXPECT_EQ(c(), raw);
    c = nullptr;
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, BoxedCaptureKeepsItsOwnershipThroughMoves)
{
    struct Pad
    {
        long payload[32] = {};
    };
    auto token = std::make_shared<int>(0);
    InlineFn<long()> a(boxed([token, pad = Pad{}] {
        return token.use_count() + pad.payload[0];
    }));
    EXPECT_EQ(token.use_count(), 2);
    InlineFn<long()> b(std::move(a));
    InlineFn<long()> c;
    c = std::move(b);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(c(), 2);
    c = nullptr;
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFn, EmplaceBuildsInPlaceAndReplacesTheOldTarget)
{
    InlineFn<int()> fn([t = Tracked{}] { return 1; });
    EXPECT_EQ(Tracked::live, 1);
    fn.emplace([] { return 2; });
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_EQ(fn(), 2);
    // An InlineFn argument is moved in, as by operator=.
    InlineFn<int()> other([t = Tracked{}] { return 3; });
    fn.emplace(std::move(other));
    EXPECT_FALSE(other); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(Tracked::live, 1);
    EXPECT_EQ(fn(), 3);
    fn = nullptr;
    EXPECT_EQ(Tracked::live, 0);
}
