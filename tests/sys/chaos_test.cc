/**
 * @file
 * Tests for the chaos layer: --chaos spec parsing, injector
 * determinism, every recovery path at system level, and the
 * invariant auditor staying clean under sustained fault injection.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sim/watchdog.hh"
#include "src/sys/chaos.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/workloads/workload.hh"

using namespace griffin;
using sys::ChaosConfig;
using sys::FaultInjector;

TEST(ChaosConfig, DefaultIsDisabled)
{
    ChaosConfig cfg;
    EXPECT_FALSE(cfg.enabled());
}

TEST(ChaosConfig, BareRateSetsEveryClass)
{
    const auto cfg = ChaosConfig::parse("0.01");
    ASSERT_TRUE(cfg.has_value());
    EXPECT_DOUBLE_EQ(cfg->linkFaultRate, 0.01);
    EXPECT_DOUBLE_EQ(cfg->linkDegradeRate, 0.01);
    EXPECT_DOUBLE_EQ(cfg->dmaFaultRate, 0.01);
    EXPECT_DOUBLE_EQ(cfg->shootdownAckLossRate, 0.01);
    EXPECT_DOUBLE_EQ(cfg->walkerStallRate, 0.01);
    EXPECT_TRUE(cfg->enabled());
}

TEST(ChaosConfig, KeyValueSpecSetsOnlyNamedKeys)
{
    const auto cfg =
        ChaosConfig::parse("dma=0.5,link=0.02,timeout=200000,retries=2");
    ASSERT_TRUE(cfg.has_value());
    EXPECT_DOUBLE_EQ(cfg->dmaFaultRate, 0.5);
    EXPECT_DOUBLE_EQ(cfg->linkFaultRate, 0.02);
    EXPECT_DOUBLE_EQ(cfg->linkDegradeRate, 0.0);
    EXPECT_DOUBLE_EQ(cfg->walkerStallRate, 0.0);
    EXPECT_EQ(cfg->migrationTimeout, 200000u);
    EXPECT_EQ(cfg->dmaMaxRetries, 2u);
}

TEST(ChaosConfig, TunableKeysParse)
{
    const auto cfg = ChaosConfig::parse(
        "ack=0.2,ackto=7000,reissues=3,stall=1500,walker=0.1,"
        "window=9000,factor=0.5,backoff=250,audit=12345,"
        "retrydelay=600,maxnacks=4,degrade=0.05");
    ASSERT_TRUE(cfg.has_value());
    EXPECT_DOUBLE_EQ(cfg->shootdownAckLossRate, 0.2);
    EXPECT_EQ(cfg->shootdownAckTimeout, 7000u);
    EXPECT_EQ(cfg->shootdownMaxReissues, 3u);
    EXPECT_EQ(cfg->walkerStallPenalty, 1500u);
    EXPECT_DOUBLE_EQ(cfg->walkerStallRate, 0.1);
    EXPECT_EQ(cfg->linkDegradeDuration, 9000u);
    EXPECT_DOUBLE_EQ(cfg->linkDegradeFactor, 0.5);
    EXPECT_EQ(cfg->dmaRetryBackoff, 250u);
    EXPECT_EQ(cfg->auditPeriod, 12345u);
    EXPECT_EQ(cfg->linkRetryDelay, 600u);
    EXPECT_EQ(cfg->linkMaxRetries, 4u);
    EXPECT_DOUBLE_EQ(cfg->linkDegradeRate, 0.05);
}

TEST(ChaosConfig, MalformedSpecsAreRejected)
{
    EXPECT_FALSE(ChaosConfig::parse("").has_value());
    EXPECT_FALSE(ChaosConfig::parse("bogus=0.1").has_value());
    EXPECT_FALSE(ChaosConfig::parse("dma").has_value());
    EXPECT_FALSE(ChaosConfig::parse("dma=").has_value());
    EXPECT_FALSE(ChaosConfig::parse("dma=abc").has_value());
    EXPECT_FALSE(ChaosConfig::parse("dma=0.5junk").has_value());
    EXPECT_FALSE(ChaosConfig::parse("dma=1.5").has_value());
    EXPECT_FALSE(ChaosConfig::parse("dma=-0.1").has_value());
    EXPECT_FALSE(ChaosConfig::parse("1.5").has_value());
    EXPECT_FALSE(ChaosConfig::parse("factor=0").has_value());
    EXPECT_FALSE(ChaosConfig::parse("factor=2").has_value());
    EXPECT_FALSE(ChaosConfig::parse("dma=0.1,,link=0.1").has_value());
    // Integer keys follow the front ends' grammar: no sign, no blanks,
    // and a value must fit its field.
    EXPECT_FALSE(ChaosConfig::parse("timeout=+5").has_value());
    EXPECT_FALSE(ChaosConfig::parse("timeout= 5").has_value());
    EXPECT_FALSE(ChaosConfig::parse("retries=4294967296").has_value());
    EXPECT_EQ(ChaosConfig::parse("timeout=0x10")->migrationTimeout, 16u);
}

TEST(FaultInjectorTest, SameSeedSameDecisionStream)
{
    ChaosConfig cfg;
    cfg.dmaFaultRate = 0.3;
    cfg.linkFaultRate = 0.2;
    cfg.seed = 77;
    FaultInjector a(cfg), b(cfg);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.failDmaTransfer(), b.failDmaTransfer());
        EXPECT_EQ(a.dropMessage(), b.dropMessage());
    }
    EXPECT_EQ(a.counters.injected, b.counters.injected);
    EXPECT_GT(a.counters.injected, 0u);
    EXPECT_EQ(a.counters.dmaFaults + a.counters.linkFaults,
              a.counters.injected);
}

TEST(FaultInjectorTest, ClassStreamsAreIndependent)
{
    // Drawing from one class's stream must not perturb another's:
    // the dma decision sequence is identical whether or not link
    // decisions are interleaved.
    ChaosConfig cfg;
    cfg.dmaFaultRate = 0.3;
    cfg.linkFaultRate = 0.3;
    cfg.seed = 5;

    FaultInjector pure(cfg);
    std::vector<bool> expected;
    for (int i = 0; i < 200; ++i)
        expected.push_back(pure.failDmaTransfer());

    FaultInjector mixed(cfg);
    std::vector<bool> got;
    for (int i = 0; i < 200; ++i) {
        (void)mixed.dropMessage();
        got.push_back(mixed.failDmaTransfer());
        (void)mixed.dropMessage();
    }
    EXPECT_EQ(got, expected);
}

TEST(FaultInjectorTest, ZeroRateConsumesNoRandomness)
{
    // A disabled class must not advance its stream — so enabling one
    // class never changes another's schedule, and the chaos-off fast
    // path costs nothing.
    ChaosConfig cfg;
    cfg.dmaFaultRate = 0.0;
    FaultInjector inj(cfg);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(inj.failDmaTransfer());
    EXPECT_EQ(inj.counters.injected, 0u);
}

namespace {

sys::RunResult
runChaos(const std::string &workload, const ChaosConfig &chaos,
         sys::SystemConfig scfg = sys::SystemConfig::griffinDefault(),
         unsigned scale_div = 64)
{
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = scale_div;
    wcfg.seed = 42;
    auto wl = wl::makeWorkload(workload, wcfg);
    scfg.chaos = chaos;
    sys::MultiGpuSystem system(scfg);
    return system.run(*wl);
}

} // namespace

TEST(ChaosSystem, RunsCompleteCleanUnderMixedFaults)
{
    auto chaos = ChaosConfig::parse("dma=0.3,link=0.02,degrade=0.01,"
                                    "ack=0.2,walker=0.05");
    ASSERT_TRUE(chaos.has_value());
    const auto r = runChaos("SC", *chaos);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.chaosInjected, 0u);
    EXPECT_EQ(r.auditViolations, 0u);
    EXPECT_EQ(r.faultSpansOpen, 0u);

    // Page conservation survives injection.
    std::uint64_t total = 0;
    for (const auto n : r.pagesPerDevice)
        total += n;
    EXPECT_EQ(double(total), r.stats.get("pageTable.totalPages"));
}

TEST(ChaosSystem, SameSeedIsDeterministic)
{
    auto chaos = ChaosConfig::parse("dma=0.3,link=0.02,walker=0.05");
    ASSERT_TRUE(chaos.has_value());
    chaos->seed = 9;
    const auto a = runChaos("MT", *chaos);
    const auto b = runChaos("MT", *chaos);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.chaosInjected, b.chaosInjected);
    EXPECT_EQ(a.chaosRetries, b.chaosRetries);
    EXPECT_EQ(a.chaosFallbacks, b.chaosFallbacks);
    EXPECT_EQ(a.chaosRecoveryCycles, b.chaosRecoveryCycles);
    EXPECT_EQ(a.pagesPerDevice, b.pagesPerDevice);
}

TEST(ChaosSystem, ChaosSeedDoesNotPerturbWorkload)
{
    // Different injector seeds change the fault schedule but the
    // workload's own trace stays byte-identical — checked indirectly:
    // with all rates 0 but different chaos seeds, runs are identical.
    ChaosConfig off_a, off_b;
    off_a.seed = 1;
    off_b.seed = 999;
    EXPECT_FALSE(off_a.enabled());
    const auto a = runChaos("KM", off_a);
    const auto b = runChaos("KM", off_b);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.pagesPerDevice, b.pagesPerDevice);
}

TEST(ChaosSystem, DmaExhaustionFallsBackToDca)
{
    // Every DMA attempt fails: retries exhaust, transfers are
    // abandoned, the driver's migration timeout fires and the pages
    // degrade to DCA remote access — and the run still completes.
    auto chaos = ChaosConfig::parse("dma=1.0,timeout=100000");
    ASSERT_TRUE(chaos.has_value());
    const auto r = runChaos("SC", *chaos);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.auditViolations, 0u);
    EXPECT_GT(r.chaosFallbacks, 0u);
    EXPECT_GT(r.stats.get("chaos.dmaAbandoned"), 0.0);
    EXPECT_GT(r.stats.get("chaos.migrationTimeouts"), 0.0);
    EXPECT_GT(r.stats.get("iommu.fallbackRedirects"), 0.0);
    // Nothing lands: no page ever completes a CPU->GPU migration.
    EXPECT_EQ(r.pagesMigratedFromCpu, 0u);
}

TEST(ChaosSystem, TransientDmaFaultsRetryAndRecover)
{
    auto chaos = ChaosConfig::parse("dma=0.4");
    ASSERT_TRUE(chaos.has_value());
    const auto r = runChaos("SC", *chaos);
    EXPECT_GT(r.chaosRetries, 0u);
    EXPECT_GT(r.chaosRecoveryCycles, 0u);
    EXPECT_GT(r.pagesMigratedFromCpu, 0u);
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(ChaosSystem, LinkFaultsRetransmitAndComplete)
{
    auto chaos = ChaosConfig::parse("link=0.1");
    ASSERT_TRUE(chaos.has_value());
    const auto r = runChaos("SC", *chaos);
    EXPECT_GT(r.stats.get("chaos.messagesNacked"), 0.0);
    EXPECT_GT(r.chaosRetries, 0u);
    EXPECT_EQ(r.auditViolations, 0u);

    // NACK-free identical run is faster (recovery adds real latency).
    ChaosConfig off;
    const auto base = runChaos("SC", off);
    EXPECT_GT(r.cycles, base.cycles);
}

TEST(ChaosSystem, WalkerStallsAreInjectedAndAccounted)
{
    auto chaos = ChaosConfig::parse("walker=0.5");
    ASSERT_TRUE(chaos.has_value());
    const auto r = runChaos("MT", *chaos);
    EXPECT_GT(r.stats.get("iommu.walksStalled"), 0.0);
    EXPECT_GT(r.chaosRecoveryCycles, 0u);
    EXPECT_EQ(r.auditViolations, 0u);
    EXPECT_EQ(double(r.chaosInjected),
              r.stats.get("iommu.walksStalled"));
}

TEST(ChaosSystem, LostShootdownAcksAreReissued)
{
    auto chaos = ChaosConfig::parse("ack=1.0,reissues=2");
    ASSERT_TRUE(chaos.has_value());
    const auto r = runChaos("SC", *chaos, sys::SystemConfig::griffinDefault(),
                            48);
    EXPECT_EQ(r.auditViolations, 0u);
    if (r.gpuShootdowns > 0) {
        EXPECT_GT(r.stats.get("chaos.shootdownsReissued"), 0.0);
        EXPECT_GT(r.chaosRetries, 0u);
    }
}

TEST(ChaosSystem, BaselinePolicySurvivesChaosToo)
{
    auto chaos = ChaosConfig::parse("dma=0.3,link=0.05,walker=0.1");
    ASSERT_TRUE(chaos.has_value());
    const auto r =
        runChaos("KM", *chaos, sys::SystemConfig::baseline());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.chaosInjected, 0u);
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(ChaosSystem, ReportAccountsForEveryInjection)
{
    auto chaos = ChaosConfig::parse("dma=0.2,link=0.02,walker=0.05");
    ASSERT_TRUE(chaos.has_value());
    const auto r = runChaos("SC", *chaos);
    const double per_class = r.stats.get("chaos.linkFaults") +
                             r.stats.get("chaos.linkDegrades") +
                             r.stats.get("chaos.dmaFaults") +
                             r.stats.get("chaos.acksLost") +
                             r.stats.get("chaos.walkerStalls");
    EXPECT_EQ(double(r.chaosInjected), per_class);
    EXPECT_GT(r.chaosInjected, 0u);
}

TEST(ChaosSystem, WatchdogThrowMidRunReleasesInFlightAccesses)
{
    // A run cut short by the maxTicks watchdog leaves accesses in every
    // layer: queued events and the IOMMU hold pooled access records by
    // pointer. Destroying the system must free each record once and
    // run no queued event (the sanitizer job checks both).
    auto chaos = ChaosConfig::parse("link=0.02,walker=0.05");
    ASSERT_TRUE(chaos.has_value());
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 64;
    wcfg.seed = 42;
    auto workload = wl::makeWorkload("SC", wcfg);
    auto scfg = sys::SystemConfig::baseline();
    scfg.chaos = *chaos;
    scfg.maxTicks = 50000;
    auto system = std::make_unique<sys::MultiGpuSystem>(scfg);
    EXPECT_THROW(system->run(*workload), sim::WatchdogError);

    std::size_t inflight = 0;
    for (unsigned g = 0; g < system->numGpus(); ++g) {
        for (unsigned c = 0; c < system->gpu(g).numCus(); ++c)
            inflight += system->gpu(g).cu(c).inflightOps();
    }
    EXPECT_GT(inflight, 0u);
    EXPECT_GT(system->engine().pendingEvents(), 0u);
    system.reset();
}

TEST(ChaosSystem, WatchdogThrowWithEveryOwnedSinkTearsDownCleanly)
{
    // A watchdog throw leaves the host profiler installed and the time
    // series unstopped. Teardown destroys the profiler before the time
    // series, whose destructor flushes its last interval: the system
    // must empty its context first, so that flush meters into nothing
    // (the sanitizer job catches a use after free otherwise).
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 64;
    wcfg.seed = 42;
    auto workload = wl::makeWorkload("SC", wcfg);
    auto scfg = sys::SystemConfig::griffinDefault();
    scfg.maxTicks = 50000;
    scfg.pageStats.enabled = true;
    scfg.timeseriesTick = 20000;
    scfg.hostProf = true;
    auto system = std::make_unique<sys::MultiGpuSystem>(scfg);
    EXPECT_THROW(system->run(*workload), sim::WatchdogError);
    EXPECT_NE(system->engine().obs().prof, nullptr);
    system.reset();
}
