/**
 * @file
 * Minimal JSON value type with parser and serializer.
 *
 * Backs the LightRidge DSL front end: model specifications, trained-weight
 * checkpoints, device response curves, and fabrication dumps are all stored
 * as JSON so they can be diffed, versioned, and loaded across tools.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace lightridge {

/** Error thrown on malformed JSON input or wrong-type access. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what) : std::runtime_error(what) {}
};

/** A JSON value: null, bool, number, string, array, or object. */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    Json() : type_(Type::Null) {}
    Json(std::nullptr_t) : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double n) : type_(Type::Number), number_(n) {}
    Json(int n) : type_(Type::Number), number_(n) {}
    Json(std::size_t n)
        : type_(Type::Number), number_(static_cast<double>(n))
    {}
    Json(const char *s) : type_(Type::String), string_(s) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
    Json(Array a) : type_(Type::Array), array_(std::move(a)) {}
    Json(Object o) : type_(Type::Object), object_(std::move(o)) {}

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const { expect(Type::Bool); return bool_; }
    double asNumber() const { expect(Type::Number); return number_; }
    int asInt() const { return static_cast<int>(asNumber()); }
    const std::string &asString() const { expect(Type::String); return string_; }
    const Array &asArray() const { expect(Type::Array); return array_; }
    Array &asArray() { expect(Type::Array); return array_; }
    const Object &asObject() const { expect(Type::Object); return object_; }
    Object &asObject() { expect(Type::Object); return object_; }

    /**
     * Checked integer read for input we do not control: the value must
     * be a number with no fractional part in [lo, hi], else JsonError
     * naming `what` (0.5, 1e300 and -1 throw, and so do a string, a
     * bool, null, an array and an object). The test runs on the double
     * before any cast, so no out-of-range value reaches an undefined
     * float-to-integer conversion.
     */
    std::uint64_t
    asInteger(const std::string &what, std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
        const;

    /** Object member access; creates members on mutable objects. */
    Json &
    operator[](const std::string &key)
    {
        if (type_ == Type::Null)
            type_ = Type::Object;
        expect(Type::Object);
        return object_[key];
    }

    /** Const object lookup; throws when the key is absent. */
    const Json &
    at(const std::string &key) const
    {
        expect(Type::Object);
        auto it = object_.find(key);
        if (it == object_.end())
            throw JsonError("missing key: " + key);
        return it->second;
    }

    /** True when this object has the given key. */
    bool
    has(const std::string &key) const
    {
        return type_ == Type::Object && object_.count(key) > 0;
    }

    /** Numeric lookup with default when the key is absent. */
    double
    numberOr(const std::string &key, double fallback) const
    {
        return has(key) ? at(key).asNumber() : fallback;
    }

    /** Append to an array value (null promotes to empty array). */
    void
    push(Json value)
    {
        if (type_ == Type::Null)
            type_ = Type::Array;
        expect(Type::Array);
        array_.push_back(std::move(value));
    }

    /** Serialize to a compact JSON string. */
    std::string dump() const;

    /** Serialize with 2-space indentation. */
    std::string pretty(int indent = 0) const;

    /**
     * Deepest array/object nesting parse() accepts. The parser recurses
     * once per container, so the limit bounds its stack use on hostile
     * input such as an HTTP body of 200 000 '['.
     */
    static constexpr int kMaxDepth = 256;

    /**
     * Parse a JSON document; throws JsonError on malformed input,
     * including nesting deeper than kMaxDepth.
     */
    static Json parse(const std::string &text);

    /** Load/parse a JSON file; throws JsonError on failure. */
    static Json load(const std::string &path);

    /** Write pretty-printed JSON to a file. @return false on I/O failure. */
    bool save(const std::string &path) const;

  private:
    void
    expect(Type t) const
    {
        if (type_ != t)
            throw JsonError("json type mismatch");
    }

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/**
 * Strict-key check for input we do not control: every key of the object
 * `j` must be in `allowed`, else JsonError "unknown key in <where>: <key>".
 */
void expectKeys(const Json &j, std::initializer_list<const char *> allowed,
                const std::string &where);

} // namespace lightridge
