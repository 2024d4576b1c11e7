#include "serve/result_codec.hh"

#include <stdexcept>

namespace tacsim {
namespace serve {

namespace {

const JsonValue &
require(const JsonValue &obj, const char *key)
{
    if (!obj.has(key))
        throw std::runtime_error(
            "result codec: missing field '" + std::string(key) + "'");
    return obj.at(key);
}

} // namespace

JsonValue
runResultToJson(const RunResult &r)
{
    JsonObject o;
    o["benchmark"] = JsonValue(r.benchmark);
    for (const RunResultField &f : kRunResultFields)
        o[f.name] = f.u64 ? JsonValue(r.*f.u64) : JsonValue(r.*f.f64);
    JsonArray tc, ti;
    for (std::uint64_t v : r.threadCycles)
        tc.push_back(JsonValue(v));
    for (std::uint64_t v : r.threadInstructions)
        ti.push_back(JsonValue(v));
    o["thread_cycles"] = JsonValue(std::move(tc));
    o["thread_instructions"] = JsonValue(std::move(ti));
    return JsonValue(std::move(o));
}

RunResult
runResultFromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw std::runtime_error("result codec: expected an object");
    RunResult r;
    r.benchmark = require(v, "benchmark").asString();
    for (const RunResultField &f : kRunResultFields) {
        const JsonValue &field = require(v, f.name);
        if (f.u64)
            r.*f.u64 = field.asU64();
        else
            r.*f.f64 = field.asNumber();
    }
    for (const JsonValue &e : require(v, "thread_cycles").asArray())
        r.threadCycles.push_back(e.asU64());
    for (const JsonValue &e : require(v, "thread_instructions").asArray())
        r.threadInstructions.push_back(e.asU64());
    return r;
}

} // namespace serve
} // namespace tacsim
