#include "src/sys/cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace griffin::sys::cli {

namespace {

std::string
baseName(const std::string &path)
{
    return path.substr(path.rfind('/') + 1);
}

std::string
joined(const std::vector<std::string> &items, const char *sep)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : sep) + s;
    return out;
}

/** A handler accepting only @p choices and passing them to @p then. */
Parser::Handler
oneOf(const std::string &name, std::vector<std::string> choices,
      Parser::Handler then)
{
    return [name, choices = std::move(choices),
            then = std::move(then)](const std::string &v) {
        if (std::find(choices.begin(), choices.end(), v) == choices.end()) {
            throw UsageError(name + " wants one of " + joined(choices, "|") +
                             ", got '" + v + "'");
        }
        then(v);
    };
}

} // namespace

std::optional<std::uint64_t>
toUint(const std::string &text)
{
    // Unlike strtoull, from_chars takes no sign, blanks or octal.
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (ec != std::errc() || end != last || first == last)
        return std::nullopt;
    return v;
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text,
          std::uint64_t min, std::uint64_t max)
{
    const auto v = toUint(text);
    if (!v || *v < min || *v > max) {
        throw UsageError(flag + " wants an integer in [" +
                         std::to_string(min) + ", " + std::to_string(max) +
                         "], got '" + text + "'");
    }
    return *v;
}

void
checkWritable(const std::string &flag, const std::string &path)
{
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    if (!std::ofstream(path, std::ios::app))
        throw UsageError(flag + ": cannot open '" + path + "' for writing");
    if (!existed)
        std::remove(path.c_str());
}

Parser::Parser(const std::string &program, std::string notes)
    : _program(baseName(program)), _notes(std::move(notes))
{
}

Parser &
Parser::toggle(const std::string &name, bool &out, std::string help,
               std::string alias)
{
    _flags.push_back({name, std::move(alias), "", std::move(help),
                      Arity::None, false,
                      [&out](const std::string &) { out = true; }});
    return *this;
}

Parser &
Parser::text(const std::string &name, std::string &out, std::string metavar,
             std::string help)
{
    return custom(name, std::move(metavar), std::move(help), false,
                  [&out](const std::string &v) { out = v; });
}

Parser &
Parser::output(const std::string &name, std::string &out, std::string help)
{
    return custom(name, "FILE", std::move(help), false,
                  [&out, name](const std::string &v) {
                      checkWritable(name, v);
                      out = v;
                  });
}

Parser &
Parser::choice(const std::string &name, std::string &out,
               std::vector<std::string> choices, std::string help)
{
    std::string metavar = joined(choices, "|");
    return custom(name, std::move(metavar), std::move(help), false,
                  oneOf(name, std::move(choices),
                        [&out](const std::string &v) { out = v; }));
}

Parser &
Parser::choices(const std::string &name, std::vector<std::string> &list,
                std::vector<std::string> choices, std::string help)
{
    help += " (one of " + joined(choices, "|") + ")";
    return custom(name, "NAME", std::move(help), true,
                  oneOf(name, std::move(choices),
                        [&list](const std::string &v) { list.push_back(v); }));
}

Parser &
Parser::custom(const std::string &name, std::string metavar,
               std::string help, bool repeatable, Handler handler)
{
    _flags.push_back({name, "", std::move(metavar), std::move(help),
                      Arity::Required, repeatable, std::move(handler)});
    return *this;
}

Parser &
Parser::optionalValue(const std::string &name, std::string metavar,
                      std::string help, Handler handler)
{
    _flags.push_back({name, "", std::move(metavar), std::move(help),
                      Arity::Optional, false, std::move(handler)});
    return *this;
}

Parser &
Parser::positional(std::string metavar, std::string &out, std::string help,
                   std::vector<std::string> choices)
{
    Handler set = [&out](const std::string &v) { out = v; };
    if (!choices.empty()) {
        help = joined(choices, "|") + help;
        set = oneOf(metavar, std::move(choices), std::move(set));
    }
    _positionals.push_back({std::move(metavar), "", "", std::move(help),
                            Arity::Required, false, std::move(set)});
    return *this;
}

void
Parser::parse(int argc, char **argv)
{
    std::size_t positionals = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() < 2 || arg[0] != '-') {
            if (positionals == _positionals.size())
                throw UsageError("unexpected argument '" + arg +
                                 "' (see --help)");
            _positionals[positionals++].handler(arg);
            continue;
        }
        if (arg == "--help" || arg == "-h")
            throw HelpRequested{help()};
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const auto flag =
            std::find_if(_flags.begin(), _flags.end(), [&](const Flag &f) {
                return f.name == key || (!f.alias.empty() && f.alias == key);
            });
        if (flag == _flags.end())
            throw UsageError("unknown flag " + key + " (see --help)");
        // A repeat almost always means a script silently overriding
        // its own earlier value, so it is an error, not last-one-wins.
        if (flag->seen && !flag->repeatable) {
            std::vector<std::string> repeatable;
            for (const Flag &f : _flags) {
                if (f.repeatable)
                    repeatable.push_back(f.name);
            }
            throw UsageError(
                "duplicate flag " + flag->name +
                (repeatable.empty()
                     ? ""
                     : " (only " + joined(repeatable, ", ") + " may repeat)"));
        }
        flag->seen = true;
        const bool inline_value = eq != std::string::npos;
        if (inline_value && flag->arity == Arity::None)
            throw UsageError(flag->name + " takes no value");
        std::string value;
        if (inline_value)
            value = arg.substr(eq + 1);
        else if (flag->arity == Arity::Required && i + 1 < argc)
            value = argv[++i];
        if (value.empty() && (inline_value || flag->arity == Arity::Required))
            throw UsageError(flag->name + " wants a value");
        flag->handler(value);
    }
    if (positionals < _positionals.size()) {
        throw UsageError("missing " + _positionals[positionals].name +
                         " (see --help)");
    }
}

std::string
Parser::help() const
{
    std::vector<std::pair<std::string, std::string>> rows;
    std::string usage = "usage: " + _program;
    for (const Flag &p : _positionals) {
        usage += " " + p.name;
        rows.emplace_back(p.name, p.help);
    }
    for (const Flag &f : _flags) {
        std::string left = (f.alias.empty() ? "" : f.alias + ", ") + f.name;
        if (f.arity != Arity::None) {
            left += f.arity == Arity::Optional ? "[=" + f.metavar + "]"
                                               : "=" + f.metavar;
        }
        rows.emplace_back(left, f.help + (f.repeatable ? " (repeatable)" : ""));
    }
    rows.emplace_back("-h, --help", "print this help and exit");
    std::size_t width = 0;
    for (const auto &row : rows)
        width = std::max(width, row.first.size());
    std::ostringstream os;
    os << usage << " [flags]\n";
    for (const auto &[left, right] : rows)
        os << "  " << left << std::string(width + 2 - left.size(), ' ')
           << right << "\n";
    if (!_notes.empty())
        os << _notes << "\n";
    return os.str();
}

int
guard(const std::string &program, const std::function<int()> &body)
{
    try {
        return body();
    } catch (const HelpRequested &h) {
        std::cout << h.text;
        return exitOk;
    } catch (const Error &e) {
        std::cerr << baseName(program) << ": " << e.what() << "\n";
        return e.code;
    }
}

obs::json::Value
loadJson(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw UsageError("cannot open " + path);
    std::ostringstream text;
    text << is.rdbuf();
    auto doc = obs::json::Value::parse(text.str());
    if (!doc)
        throw UsageError(path + ": parse error");
    return std::move(*doc);
}

ReportReader::ReportReader(const std::string &program,
                           const std::string &path, const std::string &label,
                           const std::string &section, const std::string &hint)
    : _path(path), _doc(loadJson(path))
{
    const std::string skew = reportSchemaWarning(_doc);
    if (!skew.empty())
        std::cerr << baseName(program) << ": warning: " << skew << "\n";
    const ReportRuns all = reportRuns(_doc);
    if (!all.errors.empty())
        throw UsageError(path + ": " + all.errors.front());
    bool matched = false;
    for (const ReportRun &r : all.runs) {
        if (!label.empty() && r.label != label)
            continue;
        matched = true;
        if (const obs::json::Value *s = r.run->find(section))
            runs.push_back({r.label, r.run, s});
    }
    if (!matched) {
        throw UsageError(label.empty() ? "no runs in " + path
                                       : "no run labelled \"" + label +
                                             "\" in " + path);
    }
    if (runs.empty()) {
        throw Error(exitFinding, "no " + section +
                                     " section in the selected runs (" +
                                     hint + ")");
    }
}

std::uint64_t
ReportReader::count(const obs::json::Value *v, const std::string &field) const
{
    if (!v)
        return 0;
    const double n = v->asNumber();
    // 2^64 is exact as a double, and every integral double below it
    // converts exactly; the negated test also refuses NaN.
    if (v->kind() != obs::json::Value::Kind::Number || !(n >= 0.0) ||
        n >= 18446744073709551616.0 || n != std::floor(n)) {
        std::ostringstream got;
        if (v->kind() == obs::json::Value::Kind::Number)
            got << n;
        else
            got << "a non-number";
        throw UsageError(_path + ": " + field +
                         " wants an unsigned integer, got " + got.str());
    }
    return static_cast<std::uint64_t>(n);
}

} // namespace griffin::sys::cli
