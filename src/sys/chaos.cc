#include "src/sys/chaos.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <vector>

#include "src/sys/cli.hh"

namespace griffin::sys {

namespace {

/** One "key=value" or bare-number token of a --chaos spec. */
struct Token
{
    std::string key; ///< empty for a bare number
    std::string value;
};

bool
splitSpec(const std::string &spec, std::vector<Token> &out)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        if (item.empty())
            return false;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            out.push_back(Token{std::string(), item});
        } else {
            if (eq == 0 || eq + 1 >= item.size())
                return false;
            out.push_back(Token{item.substr(0, eq), item.substr(eq + 1)});
        }
        pos = comma + 1;
    }
    return !out.empty();
}

bool
parseDouble(const std::string &text, double &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size() &&
           errno != ERANGE;
}

bool
parseRate(const std::string &text, double &out)
{
    return parseDouble(text, out) && out >= 0.0 && out <= 1.0;
}

/** An integer in the front ends' grammar (sys/cli.hh) that fits @p out. */
template <typename T>
bool
parseUint(const std::string &text, T &out)
{
    const auto v = cli::toUint(text);
    if (!v || *v > std::numeric_limits<T>::max())
        return false;
    out = T(*v);
    return true;
}

} // namespace

std::optional<ChaosConfig>
ChaosConfig::parse(const std::string &spec)
{
    std::vector<Token> tokens;
    if (!splitSpec(spec, tokens))
        return std::nullopt;

    ChaosConfig cfg;
    for (const Token &t : tokens) {
        bool ok = false;
        if (t.key.empty()) {
            // Bare probability: every fault class fires at this rate.
            double rate = 0.0;
            ok = parseRate(t.value, rate);
            cfg.linkFaultRate = rate;
            cfg.linkDegradeRate = rate;
            cfg.dmaFaultRate = rate;
            cfg.shootdownAckLossRate = rate;
            cfg.walkerStallRate = rate;
        } else if (t.key == "link") {
            ok = parseRate(t.value, cfg.linkFaultRate);
        } else if (t.key == "degrade") {
            ok = parseRate(t.value, cfg.linkDegradeRate);
        } else if (t.key == "dma") {
            ok = parseRate(t.value, cfg.dmaFaultRate);
        } else if (t.key == "ack") {
            ok = parseRate(t.value, cfg.shootdownAckLossRate);
        } else if (t.key == "walker") {
            ok = parseRate(t.value, cfg.walkerStallRate);
        } else if (t.key == "retrydelay") {
            ok = parseUint(t.value, cfg.linkRetryDelay);
        } else if (t.key == "maxnacks") {
            ok = parseUint(t.value, cfg.linkMaxRetries);
        } else if (t.key == "window") {
            ok = parseUint(t.value, cfg.linkDegradeDuration);
        } else if (t.key == "factor") {
            ok = parseDouble(t.value, cfg.linkDegradeFactor) &&
                 cfg.linkDegradeFactor > 0.0 &&
                 cfg.linkDegradeFactor <= 1.0;
        } else if (t.key == "retries") {
            ok = parseUint(t.value, cfg.dmaMaxRetries);
        } else if (t.key == "backoff") {
            ok = parseUint(t.value, cfg.dmaRetryBackoff);
        } else if (t.key == "timeout") {
            ok = parseUint(t.value, cfg.migrationTimeout);
        } else if (t.key == "ackto") {
            ok = parseUint(t.value, cfg.shootdownAckTimeout) &&
                 cfg.shootdownAckTimeout > 0;
        } else if (t.key == "reissues") {
            ok = parseUint(t.value, cfg.shootdownMaxReissues);
        } else if (t.key == "stall") {
            ok = parseUint(t.value, cfg.walkerStallPenalty);
        } else if (t.key == "audit") {
            ok = parseUint(t.value, cfg.auditPeriod);
        }
        if (!ok)
            return std::nullopt;
    }
    return cfg;
}

FaultInjector::FaultInjector(const ChaosConfig &config) : _config(config)
{
    // One substream per fault class, split in a fixed order from one
    // master: raising the dma rate cannot shift the link schedule.
    sim::Rng master(config.seed);
    _linkRng = master.split();
    _degradeRng = master.split();
    _dmaRng = master.split();
    _ackRng = master.split();
    _walkerRng = master.split();
}

bool
FaultInjector::roll(sim::Rng &rng, double rate, std::uint64_t &classCount)
{
    if (rate <= 0.0)
        return false;
    if (!rng.chance(rate))
        return false;
    ++counters.injected;
    ++classCount;
    return true;
}

bool
FaultInjector::dropMessage()
{
    return roll(_linkRng, _config.linkFaultRate, counters.linkFaults);
}

bool
FaultInjector::degradeLink()
{
    return roll(_degradeRng, _config.linkDegradeRate,
                counters.linkDegrades);
}

bool
FaultInjector::failDmaTransfer()
{
    return roll(_dmaRng, _config.dmaFaultRate, counters.dmaFaults);
}

bool
FaultInjector::loseShootdownAck()
{
    return roll(_ackRng, _config.shootdownAckLossRate, counters.acksLost);
}

bool
FaultInjector::stallWalker()
{
    return roll(_walkerRng, _config.walkerStallRate,
                counters.walkerStalls);
}

} // namespace griffin::sys
