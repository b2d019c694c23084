#include "utils/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

namespace lightridge {

namespace {

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw JsonError("json parse error at " + std::to_string(pos_) + ": " +
                        why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() && std::isspace(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char get() { char c = peek(); ++pos_; return c; }

    void
    expect(char c)
    {
        if (get() != c)
            fail(std::string("expected '") + c + "'");
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{':
          case '[': {
            if (++depth_ > Json::kMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(Json::kMaxDepth) + " levels");
            Json container = c == '{' ? parseObject() : parseArray();
            --depth_;
            return container;
          }
          case '"': return Json(parseString());
          case 't':
            if (consumeLiteral("true")) return Json(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false")) return Json(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null")) return Json(nullptr);
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            char c = get();
            if (c == '"')
                return out;
            if (c == '\\') {
                char e = get();
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    // Basic-multilingual-plane escapes only; encode as UTF-8.
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = get();
                        code <<= 4;
                        if (h >= '0' && h <= '9') code += h - '0';
                        else if (h >= 'a' && h <= 'f') code += 10 + h - 'a';
                        else if (h >= 'A' && h <= 'F') code += 10 + h - 'A';
                        else fail("bad \\u escape");
                    }
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default: fail("bad escape");
                }
            } else {
                out += c;
            }
        }
    }

    /** Consume `c` if it is next. */
    bool
    accept(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    /** Consume a run of decimal digits; false when there was none. */
    bool
    acceptDigits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ != start;
    }

    Json
    parseNumber()
    {
        // RFC 8259 grammar: an optional '-'; '0' or a digit run not
        // starting with '0'; optionally '.' and at least one digit;
        // optionally 'e'/'E', an optional sign and at least one digit.
        // std::from_chars alone also takes ".5", "01" and "1.".
        std::size_t start = pos_;
        accept('-');
        if (!accept('0') && !acceptDigits())
            fail("bad number");
        if (accept('.') && !acceptDigits())
            fail("bad number");
        if (accept('e') || accept('E')) {
            if (!accept('+'))
                accept('-');
            if (!acceptDigits())
                fail("bad number");
        }
        // No number character may follow ("1-2", "1e5e5", "0.5.5" and
        // "01" are not a number and a remainder).
        if (pos_ < text_.size() &&
            std::string_view("0123456789.eE+-").find(text_[pos_]) !=
                std::string_view::npos)
            fail("bad number");
        // Values out of double range (1e999, 1e-400) are errors;
        // subnormals parse.
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        double value = 0;
        const auto [end, ec] = std::from_chars(first, last, value);
        if (ec != std::errc() || end != last)
            fail("bad number");
        return Json(value);
    }

    Json
    parseArray()
    {
        expect('[');
        Json::Array items;
        skipWs();
        if (peek() == ']') { get(); return Json(std::move(items)); }
        for (;;) {
            items.push_back(parseValue());
            skipWs();
            char c = get();
            if (c == ']')
                return Json(std::move(items));
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json::Object members;
        skipWs();
        if (peek() == '}') { get(); return Json(std::move(members)); }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            members[key] = parseValue();
            skipWs();
            char c = get();
            if (c == '}')
                return Json(std::move(members));
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0; // open arrays/objects around the current value
};

void
dumpString(const std::string &s, std::ostringstream &out)
{
    out << '"';
    for (char c : s) {
        switch (c) {
          case '"': out << "\\\""; break;
          case '\\': out << "\\\\"; break;
          case '\n': out << "\\n"; break;
          case '\r': out << "\\r"; break;
          case '\t': out << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
    out << '"';
}

void
dumpNumber(double n, std::ostringstream &out)
{
    if (n == std::floor(n) && std::abs(n) < 1e15) {
        out << static_cast<long long>(n);
    } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", n);
        out << buf;
    }
}

void
dumpValue(const Json &v, std::ostringstream &out, int indent, int depth)
{
    auto pad = [&](int d) {
        if (indent >= 0) {
            out << '\n';
            for (int i = 0; i < d * 2; ++i)
                out << ' ';
        }
    };
    switch (v.type()) {
      case Json::Type::Null: out << "null"; break;
      case Json::Type::Bool: out << (v.asBool() ? "true" : "false"); break;
      case Json::Type::Number: dumpNumber(v.asNumber(), out); break;
      case Json::Type::String: dumpString(v.asString(), out); break;
      case Json::Type::Array: {
        const auto &items = v.asArray();
        if (items.empty()) { out << "[]"; break; }
        out << '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i) out << ',';
            pad(depth + 1);
            dumpValue(items[i], out, indent, depth + 1);
        }
        pad(depth);
        out << ']';
        break;
      }
      case Json::Type::Object: {
        const auto &members = v.asObject();
        if (members.empty()) { out << "{}"; break; }
        out << '{';
        std::size_t i = 0;
        for (const auto &[key, value] : members) {
            if (i++) out << ',';
            pad(depth + 1);
            dumpString(key, out);
            out << (indent >= 0 ? ": " : ":");
            dumpValue(value, out, indent, depth + 1);
        }
        pad(depth);
        out << '}';
        break;
      }
    }
}

} // namespace

std::string
Json::dump() const
{
    std::ostringstream out;
    dumpValue(*this, out, -1, 0);
    return out.str();
}

std::string
Json::pretty(int indent) const
{
    std::ostringstream out;
    dumpValue(*this, out, 2, indent);
    return out.str();
}

std::uint64_t
Json::asInteger(const std::string &what, std::uint64_t lo,
                std::uint64_t hi) const
{
    const double v = isNumber() ? number_ : std::nan("");
    // 2^64 is exact as a double, so `v < 0x1p64` makes the cast defined;
    // the [lo, hi] test then runs on the integer.
    const bool whole = std::isfinite(v) && v == std::floor(v) && v >= 0 &&
                       v < 0x1p64;
    const std::uint64_t n = whole ? static_cast<std::uint64_t>(v) : 0;
    if (whole && n >= lo && n <= hi)
        return n;
    std::string range = ">= " + std::to_string(lo);
    if (hi != std::numeric_limits<std::uint64_t>::max())
        range = "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    static const char *const kTypeNames[] = {"null",     "a bool",
                                             "a number", "a string",
                                             "an array", "an object"};
    char got[40];
    std::snprintf(got, sizeof(got), "%.17g", v);
    throw JsonError(what + " must be an integer " + range + ", got " +
                    (isNumber() ? got
                                : kTypeNames[static_cast<int>(type_)]));
}

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

Json
Json::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw JsonError("cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

bool
Json::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << pretty() << '\n';
    return static_cast<bool>(out);
}

void
expectKeys(const Json &j, std::initializer_list<const char *> allowed,
           const std::string &where)
{
    for (const auto &entry : j.asObject()) {
        bool known = false;
        for (const char *key : allowed)
            known = known || entry.first == key;
        if (!known)
            throw JsonError("unknown key in " + where + ": " + entry.first);
    }
}

} // namespace lightridge
