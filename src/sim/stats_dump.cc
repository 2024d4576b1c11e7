#include "sim/stats_dump.hh"

#include <cstdio>
#include <map>
#include <sstream>

namespace tacsim {

namespace {

void
emit(std::string &out, const char *key, std::uint64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s %llu\n", key,
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
emit(std::string &out, const char *key, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s %.12g\n", key, v);
    out += buf;
}

void
emit(std::string &out, const char *key, const std::string &v)
{
    out += key;
    out += ' ';
    out += v;
    out += '\n';
}

} // namespace

std::string
dumpRunResult(const RunResult &r)
{
    std::string out;
    out.reserve(1024);
    emit(out, "benchmark", r.benchmark);
    for (const RunResultField &f : kRunResultFields) {
        if (f.u64)
            emit(out, f.name, r.*f.u64);
        else
            emit(out, f.name, r.*f.f64);
    }
    for (std::size_t t = 0; t < r.threadCycles.size(); ++t) {
        const std::string key = "thread" + std::to_string(t);
        emit(out, (key + "_cycles").c_str(), r.threadCycles[t]);
        emit(out, (key + "_instructions").c_str(),
             r.threadInstructions[t]);
    }
    return out;
}

namespace {

std::map<std::string, std::string>
parseDump(const std::string &text)
{
    std::map<std::string, std::string> fields;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const std::size_t sp = line.find(' ');
        if (sp == std::string::npos)
            fields[line] = "";
        else
            fields[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return fields;
}

} // namespace

std::string
dumpFullStats(const System &sys)
{
    return sys.metrics().dumpText();
}

std::vector<std::string>
diffDumps(const std::string &expected, const std::string &actual)
{
    const auto exp = parseDump(expected);
    const auto act = parseDump(actual);
    std::vector<std::string> diffs;
    for (const auto &[key, value] : exp) {
        auto it = act.find(key);
        if (it == act.end())
            diffs.push_back(key + ": expected " + value +
                            ", missing in actual");
        else if (it->second != value)
            diffs.push_back(key + ": expected " + value + ", got " +
                            it->second);
    }
    for (const auto &[key, value] : act) {
        if (!exp.count(key))
            diffs.push_back(key + ": unexpected field (value " + value +
                            ")");
    }
    return diffs;
}

} // namespace tacsim
