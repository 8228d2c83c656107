/**
 * @file
 * The command-line layer of every front end (bench::Options and the
 * griffin-* tools): a flag table that generates --help, strict
 * integers, the report reader and the exit codes. It throws; each
 * front end turns that into an exit code at one point (guard()).
 *
 * The contract every binary keeps:
 *  - an unknown flag, or a second use of a single-shot flag, exits 2;
 *  - integers are decimal or 0x hex, unsigned, with no trailing text,
 *    inside the flag's [min, max];
 *  - value flags take --flag=V or --flag V (a flag whose value is
 *    optional, like --host-prof[=FILE], takes only the = form);
 *  - exit codes are 0 ok, 1 finding, 2 usage / IO / parse error.
 */

#ifndef GRIFFIN_SYS_CLI_HH
#define GRIFFIN_SYS_CLI_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/json.hh"
#include "src/sys/report.hh"

namespace griffin::sys::cli {

enum ExitCode : int { exitOk = 0, exitFinding = 1, exitUsage = 2 };

/** A front-end failure and the exit code it maps to. */
struct Error : std::runtime_error
{
    Error(int c, const std::string &what) : std::runtime_error(what), code(c) {}
    int code;
};

/** Bad input: flags, values, unreadable or malformed files (exit 2). */
struct UsageError : Error
{
    explicit UsageError(const std::string &what) : Error(exitUsage, what) {}
};

/** Thrown on --help/-h, carrying the generated help text (exit 0). */
struct HelpRequested
{
    std::string text;
};

/**
 * @p text as an unsigned integer: decimal or 0x hex, with no sign,
 * blanks or trailing text, and no overflow. nullopt otherwise.
 */
std::optional<std::uint64_t> toUint(const std::string &text);

/**
 * toUint(@p text) inside [min, max], or a UsageError saying
 * "FLAG wants an integer in [min, max], got 'TEXT'".
 */
std::uint64_t parseUint(const std::string &flag, const std::string &text,
                        std::uint64_t min, std::uint64_t max);

/**
 * A UsageError unless @p path opens for writing. A file the probe
 * creates is removed again, so a run that writes nothing leaves
 * nothing behind.
 */
void checkWritable(const std::string &flag, const std::string &path);

/** A declarative flag table; parse() fills the bound variables. */
class Parser
{
  public:
    /** Applies one value (a toggle's is ""); throws UsageError. */
    using Handler = std::function<void(const std::string &)>;

    /**
     * @p program may be a path (argv[0]); help and errors show its
     * last component. @p notes closes the generated --help text.
     */
    explicit Parser(const std::string &program, std::string notes = {});

    /** A bare switch, with an optional short @p alias ("-q"). */
    Parser &toggle(const std::string &name, bool &out, std::string help,
                   std::string alias = {});
    /** Any non-empty text. */
    Parser &text(const std::string &name, std::string &out,
                 std::string metavar, std::string help);
    /** An output path, probed with checkWritable() when parsed. */
    Parser &output(const std::string &name, std::string &out,
                   std::string help);
    Parser &choice(const std::string &name, std::string &out,
                   std::vector<std::string> choices, std::string help);
    /** A repeatable choice; each use appends to @p list. */
    Parser &choices(const std::string &name, std::vector<std::string> &list,
                    std::vector<std::string> choices, std::string help);

    /** An integer in [min, max] (see parseUint). */
    template <typename T>
    Parser &
    integer(const std::string &name, T &out, std::string help,
            std::uint64_t min = 0, std::uint64_t max = UINT64_MAX)
    {
        return custom(name, "N", std::move(help), false,
                      [&out, name, min, max](const std::string &v) {
                          out = T(parseUint(name, v, min, max));
                      });
    }

    /** A value flag with its own validation. */
    Parser &custom(const std::string &name, std::string metavar,
                   std::string help, bool repeatable, Handler handler);
    /** A flag whose =VALUE may be left off (@p handler then gets ""). */
    Parser &optionalValue(const std::string &name, std::string metavar,
                          std::string help, Handler handler);
    /** A required positional, in order; non-empty @p choices bind it. */
    Parser &positional(std::string metavar, std::string &out,
                       std::string help,
                       std::vector<std::string> choices = {});

    /** Throws UsageError, or HelpRequested on --help/-h. */
    void parse(int argc, char **argv);

  private:
    enum class Arity { None, Required, Optional };
    struct Flag
    {
        std::string name, alias, metavar, help;
        Arity arity;
        bool repeatable;
        Handler handler;
        bool seen = false;
    };
    std::string help() const;

    std::string _program, _notes;
    std::vector<Flag> _flags;
    std::vector<Flag> _positionals; ///< named by their metavar
};

/**
 * Run a front end's body under the contract: HelpRequested prints the
 * help on stdout and yields 0; an Error prints "PROGRAM: what" on
 * stderr (PROGRAM without its directory) and yields its code.
 */
int guard(const std::string &program, const std::function<int()> &body);

/** Read and parse a JSON file, or throw a UsageError. */
obs::json::Value loadJson(const std::string &path);

/** One selected run and one of its sections. */
struct RunSection
{
    std::string label;
    const obs::json::Value *run;
    const obs::json::Value *section;
};

/**
 * A run report opened by a query tool: loaded, warned about when its
 * schema_version is unknown, its runs enumerated by sys::reportRuns
 * (a malformed run list is a UsageError), filtered to @p label (all
 * runs when empty; no match is a UsageError) and to those carrying
 * @p section (none is a finding, exit 1, whose message ends in
 * @p hint).
 */
class ReportReader
{
  public:
    ReportReader(const std::string &program, const std::string &path,
                 const std::string &label, const std::string &section,
                 const std::string &hint);
    ReportReader(const ReportReader &) = delete;
    ReportReader &operator=(const ReportReader &) = delete;

    /** The selected runs, in report order; they point into the doc. */
    std::vector<RunSection> runs;

    /**
     * The count @p v holds, 0 when @p v is null (the field is
     * absent). Anything but an unsigned integer below 2^64 —
     * negative, fractional, too large, not a number — is a
     * UsageError naming @p field: reports are outside input, and
     * converting such a double to an integer is undefined.
     */
    std::uint64_t count(const obs::json::Value *v,
                        const std::string &field) const;

  private:
    std::string _path;
    obs::json::Value _doc;
};

} // namespace griffin::sys::cli

#endif // GRIFFIN_SYS_CLI_HH
