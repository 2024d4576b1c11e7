/**
 * @file
 * Minimal JSON reader/writer for the serve layer's on-disk formats.
 *
 * Result cache entries (serve/result_cache.hh) and the RunResult codec
 * (serve/result_codec.hh) are small, flat-ish documents, so this is a
 * deliberately small recursive-descent parser over an owning value
 * tree — not a general-purpose JSON library. Scope: objects, arrays,
 * strings (with \uXXXX escapes decoded to UTF-8), numbers (doubles,
 * with an exact-integer accessor), booleans, null. Entries are read
 * back from disk, where they may be truncated, corrupted or hand-edited,
 * so the reader treats its input as hostile: it rejects trailing
 * garbage, caps nesting depth, and throws std::runtime_error with a
 * byte offset on malformed input, never crashing on a weird payload.
 *
 * The writer escapes control characters and always emits valid UTF-8
 * passthrough; numbers print round-trip-exactly. jsonQuote is also the
 * string escape of the tacsim-sweep-v1 report (sim/sweep.hh).
 */

#ifndef TACSIM_SERVE_JSON_HH
#define TACSIM_SERVE_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace tacsim {
namespace serve {

class JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() : kind_(Kind::Null) {}
    JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    JsonValue(double d) : kind_(Kind::Number), num_(d) {}
    JsonValue(std::int64_t i)
        : kind_(Kind::Number), num_(static_cast<double>(i))
    {}
    JsonValue(std::uint64_t u)
        : kind_(Kind::Number), num_(static_cast<double>(u))
    {}
    JsonValue(const char *s) : kind_(Kind::String), str_(s) {}
    JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    JsonValue(JsonArray a)
        : kind_(Kind::Array),
          arr_(std::make_shared<JsonArray>(std::move(a)))
    {}
    JsonValue(JsonObject o)
        : kind_(Kind::Object),
          obj_(std::make_shared<JsonObject>(std::move(o)))
    {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; throw std::runtime_error on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    /** The number as u64; throws unless it is a non-negative integer
     *  representable exactly in a double (< 2^53). */
    std::uint64_t asU64() const;
    const std::string &asString() const;
    const JsonArray &asArray() const;
    const JsonObject &asObject() const;

    /** Object member lookup; null-kind reference when absent. */
    const JsonValue &at(const std::string &key) const;
    bool has(const std::string &key) const;

    /** Serialize (compact, keys in map order — deterministic). */
    std::string dump() const;

  private:
    void dumpTo(std::string &out) const;

    Kind kind_;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    // Shared (not unique) so JsonValue stays copyable; the value tree
    // is read-only after construction everywhere it is shared.
    std::shared_ptr<JsonArray> arr_;
    std::shared_ptr<JsonObject> obj_;
};

/**
 * Parse a complete JSON document. Throws std::runtime_error (message
 * includes the byte offset) on malformed input, trailing garbage, or
 * nesting deeper than 64 levels.
 */
JsonValue parseJson(const std::string &text);

/** Escape @p s as a JSON string literal, quotes included. */
std::string jsonQuote(const std::string &s);

} // namespace serve
} // namespace tacsim

#endif // TACSIM_SERVE_JSON_HH
