#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/logging.hh"

namespace libra {

void
appendJsonNumber(std::string& out, double v)
{
    if (!std::isfinite(v))
        fatal("cannot serialize non-finite number to JSON");
    char buf[32];
    char* end;
    // Integers up to 2^53 print without an exponent or decimal point,
    // keeping labels and counts readable in emitted files.
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15)
        end = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(v)).ptr;
    else
        end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    out.append(buf, end);
}

std::string
jsonNumberToString(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("JSON value is not a bool");
    return bool_;
}

double
Json::asNumber() const
{
    if (kind_ != Kind::Number)
        fatal("JSON value is not a number");
    return num_;
}

const std::string&
Json::asString() const
{
    if (kind_ != Kind::String)
        fatal("JSON value is not a string");
    return str_;
}

const Json::Array&
Json::items() const
{
    if (kind_ != Kind::Array)
        fatal("JSON value is not an array");
    return arr_;
}

const Json::Object&
Json::members() const
{
    if (kind_ != Kind::Object)
        fatal("JSON value is not an object");
    return obj_;
}

void
Json::push(Json v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        fatal("JSON push on a non-array value");
    arr_.push_back(std::move(v));
}

Json&
Json::operator[](const std::string& key)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        fatal("JSON [] on a non-object value");
    for (auto& [k, v] : obj_) {
        if (k == key)
            return v;
    }
    obj_.emplace_back(key, Json());
    return obj_.back().second;
}

bool
Json::has(const std::string& key) const
{
    if (kind_ != Kind::Object)
        return false;
    for (const auto& [k, v] : obj_) {
        if (k == key)
            return true;
    }
    return false;
}

const Json&
Json::at(const std::string& key) const
{
    for (const auto& [k, v] : members()) {
        if (k == key)
            return v;
    }
    fatal("JSON object has no member '", key, "'");
}

namespace {

void
appendEscaped(std::string& out, const std::string& s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char* hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNewline(std::string& out, int indent, int depth)
{
    if (indent < 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

} // namespace

void
Json::dumpTo(std::string& out, int indent, int depth) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        return;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::Number:
        appendJsonNumber(out, num_);
        return;
      case Kind::String:
        appendEscaped(out, str_);
        return;
      case Kind::Array:
        if (arr_.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            appendNewline(out, indent, depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        appendNewline(out, indent, depth);
        out += ']';
        return;
      case Kind::Object:
        if (obj_.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ',';
            appendNewline(out, indent, depth + 1);
            appendEscaped(out, obj_[i].first);
            out += indent < 0 ? ":" : ": ";
            obj_[i].second.dumpTo(out, indent, depth + 1);
        }
        appendNewline(out, indent, depth);
        out += '}';
        return;
    }
    panic("unknown JSON kind");
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    parse()
    {
        Json v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char* what) const
    {
        fatal("JSON parse error at offset ", pos_, ": ", what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLiteral(const char* lit)
    {
        std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote or escape in one append.
            std::size_t stop = pos_;
            while (stop < text_.size() && text_[stop] != '"' &&
                   text_[stop] != '\\')
                ++stop;
            out.append(text_.substr(pos_, stop - pos_));
            pos_ = stop;
            if (pos_ >= text_.size())
                fail("unterminated string");
            if (text_[pos_++] == '"')
                return out;
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                if (code > 0x7f)
                    fail("non-ASCII \\u escapes are not supported");
                out += static_cast<char>(code);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    Json
    number()
    {
        std::size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        // from_chars is locale-independent, matching the to_chars
        // writer (strtod would honor LC_NUMERIC decimal separators).
        const char* begin = text_.data() + start;
        const char* limit = text_.data() + pos_;
        double v = 0.0;
        auto [end, ec] = std::from_chars(begin, limit, v);
        if (ec != std::errc() || end != limit)
            fail("bad number");
        return Json(v);
    }

    Json
    object()
    {
        expect('{');
        Json obj = Json::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWs();
            std::string key = string();
            expect(':');
            obj[key] = value();
            char sep = peek();
            ++pos_;
            if (sep == '}')
                return obj;
            if (sep != ',')
                fail("expected ',' or '}'");
        }
    }

    Json
    array()
    {
        expect('[');
        Json arr = Json::array();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(value());
            char sep = peek();
            ++pos_;
            if (sep == ']')
                return arr;
            if (sep != ',')
                fail("expected ',' or ']'");
        }
    }

    Json
    value()
    {
        char c = peek();
        if (c == '{' || c == '[') {
            // Each level is a recursion; bound it so hostile input
            // fails cleanly instead of overflowing the stack.
            if (++depth_ > kMaxJsonDepth)
                fail("nesting deeper than kMaxJsonDepth");
            Json v = c == '{' ? object() : array();
            --depth_;
            return v;
        }
        if (c == '"')
            return Json(string());
        if (consumeLiteral("true"))
            return Json(true);
        if (consumeLiteral("false"))
            return Json(false);
        if (consumeLiteral("null"))
            return Json();
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return number();
        fail("unexpected character");
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0; ///< Open arrays/objects enclosing pos_.
};

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).parse();
}

} // namespace libra
