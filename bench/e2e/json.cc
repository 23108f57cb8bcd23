#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace e2e {

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[name, value] : object)
        if (name == key)
            return &value;
    return nullptr;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    document(Json &out, std::string &error)
    {
        if (!value(out, 0)) {
            error = error_ + " at offset " + std::to_string(pos_);
            return false;
        }
        skipSpace();
        if (pos_ != text_.size()) {
            error = "trailing text at offset " + std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;

    bool
    fail(const char *message)
    {
        error_ = message;
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (text_.compare(pos_, w.size(), w) != 0)
            return fail("unknown literal");
        pos_ += w.size();
        return true;
    }

    bool
    value(Json &out, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end");
        const char c = text_[pos_];
        if (c == '{')
            return object(out, depth);
        if (c == '[')
            return array(out, depth);
        if (c == '"') {
            out.type = Json::Type::kString;
            return string(out.string);
        }
        if (c == 't' || c == 'f') {
            out.type = Json::Type::kBool;
            out.boolean = c == 't';
            return literal(out.boolean ? "true" : "false");
        }
        if (c == 'n') {
            out.type = Json::Type::kNull;
            return literal("null");
        }
        return number(out);
    }

    bool
    number(Json &out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::string_view("+-0123456789.eE").find(text_[pos_]) !=
                   std::string_view::npos)
            ++pos_;
        const auto [end, ec] = std::from_chars(
            text_.data() + start, text_.data() + pos_, out.number);
        if (start == pos_ || ec != std::errc() ||
            end != text_.data() + pos_)
            return fail("malformed number");
        out.type = Json::Type::kNumber;
        return true;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            c = text_[pos_++];
            switch (c) {
              case '"': case '\\': case '/': out += c; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code = 0;
                if (pos_ + 4 > text_.size() ||
                    std::from_chars(text_.data() + pos_,
                                    text_.data() + pos_ + 4, code, 16)
                            .ptr != text_.data() + pos_ + 4)
                    return fail("malformed \\u escape");
                pos_ += 4;
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
              default:
                return fail("unknown escape");
            }
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    bool
    array(Json &out, int depth)
    {
        out.type = Json::Type::kArray;
        ++pos_;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            out.array.emplace_back();
            if (!value(out.array.back(), depth + 1))
                return false;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    object(Json &out, int depth)
    {
        out.type = Json::Type::kObject;
        ++pos_;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected a member name");
            std::string key;
            if (!string(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            out.object.emplace_back(std::move(key), Json{});
            if (!value(out.object.back().second, depth + 1))
                return false;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }
};

} // namespace

bool
parseJson(const std::string &text, Json &out, std::string &error)
{
    out = Json{};
    return Parser(text).document(out, error);
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, result.ptr);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", c);
            out += esc;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace e2e
