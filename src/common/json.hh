/**
 * @file
 * Minimal self-contained JSON value type for the study engine.
 *
 * Used for structured scenario-matrix emission, the content-addressed
 * result cache, and the golden-figure files — all places where output
 * must be deterministic and byte-stable:
 *
 *  - objects preserve insertion order (no sorting, no hash maps), so
 *    dumping the same value twice yields identical bytes;
 *  - numbers are rendered with std::to_chars shortest round-trip
 *    formatting, so dump() -> parse() reproduces every double
 *    bit-exactly (the property the result cache relies on);
 *  - no locale dependence anywhere.
 *
 * Deliberately small: null/bool/number/string/array/object, parse and
 * dump. Not a general-purpose JSON library (no comments, no \u escapes
 * beyond ASCII pass-through on output).
 */

#ifndef LIBRA_COMMON_JSON_HH
#define LIBRA_COMMON_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace libra {

/** Append the shortest text that strtod parses back to exactly @p v. */
void appendJsonNumber(std::string& out, double v);

/** appendJsonNumber into a new string. */
std::string jsonNumberToString(double v);

/**
 * Canonical-text field encoders, shared by every canonical
 * serialization that feeds content identity (the study cache key and
 * costModelsEqual, defined as equal canonical text). One
 * definition so the encoding can never diverge between sites.
 */
inline void
appendCanonicalNumber(std::string& out, double v)
{
    appendJsonNumber(out, v);
    out += ' ';
}

/** Length-prefixed, so field sequences cannot collide by concatenation. */
inline void
appendCanonicalString(std::string& out, const std::string& s)
{
    out += std::to_string(s.size());
    out += ':';
    out += s;
    out += ' ';
}

/**
 * Deepest array/object nesting Json::parse accepts. Parsing recurses
 * once per level, so an unbounded depth lets one hostile line (a serve
 * request, a worker frame, a cache file) exhaust the stack. Every
 * document LIBRA writes nests fewer than ten levels.
 */
inline constexpr int kMaxJsonDepth = 256;

/** Insertion-ordered JSON value. */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(double v) : kind_(Kind::Number), num_(v) {}
    Json(int v) : kind_(Kind::Number), num_(v) {}
    Json(long v) : kind_(Kind::Number), num_(static_cast<double>(v)) {}
    Json(std::size_t v)
        : kind_(Kind::Number), num_(static_cast<double>(v))
    {}
    Json(const char* s) : kind_(Kind::String), str_(s) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static Json array() { return Json(Kind::Array); }
    static Json object() { return Json(Kind::Object); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; throw FatalError on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string& asString() const;
    const Array& items() const;
    const Object& members() const;

    /** Append to an array value (converts a Null to an Array). */
    void push(Json v);

    /**
     * Object member access; appends a null member when the key is
     * absent (converts a Null value to an Object).
     */
    Json& operator[](const std::string& key);

    /** True when an object has member @p key. */
    bool has(const std::string& key) const;

    /** Object member lookup; throws FatalError when absent. */
    const Json& at(const std::string& key) const;

    /**
     * Serialize. @p indent < 0 renders compact one-line JSON;
     * @p indent >= 0 pretty-prints with that many spaces per level.
     * Same value always renders the same bytes.
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse @p text. @throws FatalError on malformed input, including
     * arrays and objects nested deeper than kMaxJsonDepth.
     */
    static Json parse(std::string_view text);

  private:
    explicit Json(Kind kind) : kind_(kind) {}

    void dumpTo(std::string& out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

} // namespace libra

#endif // LIBRA_COMMON_JSON_HH
