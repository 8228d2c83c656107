/**
 * @file
 * Unit tests for the Link and Network models: latency, bandwidth
 * serialization, duplex independence, and congestion at a hot device.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/interconnect/link.hh"
#include "src/interconnect/switch.hh"
#include "src/sim/engine.hh"
#include "tests/sim/move_probe.hh"

using namespace griffin;
using ic::Link;
using ic::LinkConfig;
using ic::Network;

TEST(Link, SingleMessageLatency)
{
    Link link(LinkConfig{32.0, 250});
    // 64 B at 32 B/cy = 2 cycles service + 250 latency.
    EXPECT_EQ(link.send(0, 0, 64), 252u);
}

TEST(Link, MinimumOneCycleService)
{
    Link link(LinkConfig{32.0, 10});
    EXPECT_EQ(link.send(0, 0, 8), 11u);
}

TEST(Link, BackToBackSerializes)
{
    Link link(LinkConfig{32.0, 250});
    EXPECT_EQ(link.send(0, 0, 64), 252u);
    EXPECT_EQ(link.send(0, 0, 64), 254u); // starts at t=2
    EXPECT_EQ(link.nextFree(0), 4u);
}

TEST(Link, DirectionsAreIndependent)
{
    Link link(LinkConfig{32.0, 250});
    link.send(0, 0, 3200); // occupies upstream 100 cycles
    EXPECT_EQ(link.send(0, 1, 64), 252u); // downstream unaffected
}

TEST(Link, IdleGapResetsStart)
{
    Link link(LinkConfig{32.0, 100});
    link.send(0, 0, 64);
    EXPECT_EQ(link.send(1000, 0, 64), 1102u);
}

TEST(Link, StatsPerDirection)
{
    Link link(LinkConfig{32.0, 100});
    link.send(0, 0, 64);
    link.send(0, 0, 64);
    link.send(0, 1, 128);
    EXPECT_EQ(link.messages[0], 2u);
    EXPECT_EQ(link.messages[1], 1u);
    EXPECT_EQ(link.bytesSent[0], 128u);
    EXPECT_EQ(link.bytesSent[1], 128u);
    EXPECT_EQ(link.busyCycles[0], 4u);
    EXPECT_EQ(link.busyCycles[1], 4u);
}

TEST(Link, DegradeWindowScalesServiceTime)
{
    Link link(LinkConfig{32.0, 250});
    // At quarter bandwidth, 64 B takes 8 service cycles, not 2.
    link.degrade(1000, 0.25);
    EXPECT_TRUE(link.degradedAt(0));
    EXPECT_EQ(link.send(0, 0, 64), 258u);
    EXPECT_EQ(link.degradedMessages, 1u);
}

TEST(Link, DegradeWindowExpires)
{
    Link link(LinkConfig{32.0, 250});
    link.degrade(100, 0.25);
    EXPECT_FALSE(link.degradedAt(100));
    // A message starting after the window sees full bandwidth again.
    EXPECT_EQ(link.send(100, 0, 64), 352u);
    EXPECT_EQ(link.degradedMessages, 0u);
}

TEST(Link, DegradeExtendsNotShrinks)
{
    Link link(LinkConfig{32.0, 250});
    link.degrade(1000, 0.25);
    link.degrade(500, 0.25); // shorter window must not shrink it
    EXPECT_TRUE(link.degradedAt(900));
}

TEST(Link, OverlappingDegradeKeepsMostDegradedFactor)
{
    Link link(LinkConfig{32.0, 250});
    // A severe fault is in effect until t=1000; a milder one arrives
    // and lasts longer. Over the overlap the severe factor must win —
    // the milder injection must not silently repair the link.
    link.degrade(1000, 0.25);
    link.degrade(2000, 0.5);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(500), 0.25);
    // 64 B at quarter bandwidth: 8 service cycles.
    EXPECT_EQ(link.send(0, 0, 64), 258u);
    // After the severe window closes only the milder one applies.
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(1500), 0.5);
    EXPECT_EQ(link.send(1500, 0, 64), 1754u);
    // Both windows closed: full bandwidth.
    EXPECT_FALSE(link.degradedAt(2000));
    EXPECT_EQ(link.send(3000, 0, 64), 3252u);
    EXPECT_EQ(link.degradedMessages, 2u);
}

TEST(Link, MilderOverlapAppliesAfterSevereWindowCloses)
{
    Link link(LinkConfig{32.0, 250});
    // Injection order must not matter: severe-then-milder and
    // milder-then-severe resolve identically over the overlap.
    link.degrade(2000, 0.5);
    link.degrade(1000, 0.25);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(500), 0.25);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(1500), 0.5);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(2500), 1.0);
}

TEST(Link, ServiceTimeMatchesTheFloatingPointFormula)
{
    // Whole bytes-per-cycle links serialize with integer arithmetic
    // while no window is open; fractional ones, and any message inside
    // a window, take the double path. Every path must give the service
    // time max(1, ceil(bytes / (bytesPerCycle * factor))). A window
    // that closes part-way sends the later messages back to the
    // integer path.
    const Tick latency = 7;
    const std::vector<std::uint64_t> large = {
        std::uint64_t(1) << 40, (std::uint64_t(1) << 40) + 1,
        (std::uint64_t(1) << 53) - 1};
    enum class Window { None, Open, ClosesMidway };
    for (const double bpc : {1.0, 8.0, 32.0, 64.0, 12.5, 0.5}) {
        for (const Window window :
             {Window::None, Window::Open, Window::ClosesMidway}) {
            SCOPED_TRACE(testing::Message()
                         << "bytesPerCycle " << bpc << " window "
                         << int(window));
            Link link(LinkConfig{bpc, latency});
            Tick until = 0;
            if (window == Window::Open)
                until = Tick(1) << 62;
            else if (window == Window::ClosesMidway)
                until = 1000; // part-way through every sweep
            if (until > 0)
                link.degrade(until, 0.5);
            std::vector<std::uint64_t> sizes;
            for (std::uint64_t bytes = 1; bytes <= 4096; ++bytes)
                sizes.push_back(bytes);
            sizes.insert(sizes.end(), large.begin(), large.end());
            for (const std::uint64_t bytes : sizes) {
                const Tick start = link.nextFree(0);
                const double factor = start < until ? 0.5 : 1.0;
                const Tick expected = std::max<Tick>(
                    1, Tick(std::ceil(double(bytes) / (bpc * factor))));
                ASSERT_EQ(link.send(start, 0, bytes) - start - latency,
                          expected)
                    << "bytes " << bytes;
            }
        }
    }
}

TEST(Network, DeliversAfterTwoHops)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    Tick delivered = 0;
    net.send(1, 2, 64, [&] { delivered = engine.now(); });
    engine.run();
    // src up: 2 service + 100; dst down: starts at 102, +2+100 = 204.
    EXPECT_EQ(delivered, 204u);
    EXPECT_EQ(net.messagesDelivered, 1u);
}

TEST(Network, DeliveryCallbackIsMovedAtMostOnce)
{
    // send() takes the receiver's callback by value and moves it into
    // its delivery event's slot; nothing else moves it.
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    test::ProbeCounts c;
    const test::MoveProbe probe(c);
    net.send(1, 2, 64, probe);
    engine.run();
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.copies, 1);
    EXPECT_LE(c.moves, 1);
    EXPECT_EQ(c.live(), 0);
}

TEST(Network, HotDestinationCongests)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    // Three senders target device 1 simultaneously with large
    // messages: deliveries serialize on device 1's downstream wire.
    std::vector<Tick> times;
    for (DeviceId src = 2; src <= 4; ++src)
        net.send(src, 1, 3200, [&] { times.push_back(engine.now()); });
    engine.run();
    ASSERT_EQ(times.size(), 3u);
    EXPECT_EQ(times[0], 400u);           // 100 ser + 100, then +100+100
    EXPECT_EQ(times[1] - times[0], 100u); // serialized at 100 cy each
    EXPECT_EQ(times[2] - times[1], 100u);
}

TEST(Network, DistinctDestinationsDoNotContend)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    std::vector<Tick> times;
    net.send(1, 2, 3200, [&] { times.push_back(engine.now()); });
    net.send(3, 4, 3200, [&] { times.push_back(engine.now()); });
    engine.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], times[1]);
}

TEST(Network, SameSourceSerializesOnEgress)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    std::vector<Tick> times;
    net.send(1, 2, 3200, [&] { times.push_back(engine.now()); });
    net.send(1, 3, 3200, [&] { times.push_back(engine.now()); });
    engine.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[1] - times[0], 100u); // egress wire shared
}

TEST(Network, PageTransferTiming)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 250});
    Tick delivered = 0;
    // A 4 KB page + header: the dominant migration cost.
    net.send(1, 2, 4096 + 8, [&] { delivered = engine.now(); });
    engine.run();
    // ceil(4104/32)=129 service twice + 250 latency twice.
    EXPECT_EQ(delivered, 2u * (129 + 250));
}

TEST(NetworkDeath, LoopbackRejected)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    EXPECT_DEATH(net.send(1, 1, 64, [] {}), "loopback");
}
