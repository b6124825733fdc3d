#include "obs/json.h"

#include <cstdio>
#include <cstdlib>

namespace ebs::obs {

void
JsonReader::fail(const std::string &what)
{
    if (!failed_ && error_ != nullptr)
        *error_ = what + " at offset " + std::to_string(pos_);
    failed_ = true;
}

void
JsonReader::skipWs()
{
    while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
            return;
        ++pos_;
    }
}

bool
JsonReader::consume(char c)
{
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
        ++pos_;
        return true;
    }
    return false;
}

char
JsonReader::peek()
{
    skipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
}

bool
JsonReader::finish()
{
    skipWs();
    if (pos_ < text_.size())
        fail("trailing content");
    return !failed_;
}

std::string
JsonReader::parseString()
{
    std::string out;
    if (!consume('"')) {
        fail("expected string");
        return out;
    }
    while (pos_ < text_.size()) {
        const char c = text_[pos_++];
        if (c == '"')
            return out;
        if (static_cast<unsigned char>(c) < 0x20) {
            fail("unescaped control character in string");
            return out;
        }
        if (c != '\\') {
            out += c;
            continue;
        }
        if (pos_ >= text_.size())
            break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/': out += esc; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            // A placeholder for wide code points would alias distinct
            // keys ("k\u00e9" and "k\u00e8" both becoming "k?"), so
            // the escape is decoded, and a malformed one fails.
            appendUnicodeEscape(out);
            if (failed_)
                return out;
            break;
          default:
            fail(std::string("invalid string escape '\\") + esc + "'");
            return out;
        }
    }
    fail("unterminated string");
    return out;
}

double
JsonReader::parseNumber()
{
    // JSON's number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    skipWs();
    const std::size_t start = pos_;
    const auto at = [this](char c) {
        return pos_ < text_.size() && text_[pos_] == c;
    };
    const auto digits = [this] {
        const std::size_t first = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        return pos_ > first;
    };
    if (at('-'))
        ++pos_;
    bool ok = at('0') ? (++pos_, true) : digits();
    if (ok && at('.')) {
        ++pos_;
        ok = digits();
    }
    if (ok && (at('e') || at('E'))) {
        ++pos_;
        if (at('+') || at('-'))
            ++pos_;
        ok = digits();
    }
    if (!ok) {
        pos_ = start;
        fail("expected a number");
        return 0.0;
    }
    return std::strtod(text_.c_str() + start, nullptr);
}

void
JsonReader::skipValue()
{
    switch (peek()) {
      case '"': parseString(); break;
      case '{':
        parseObjectWith([this](const std::string &) { skipValue(); });
        break;
      case '[': parseArrayWith([this] { skipValue(); }); break;
      case 't': expectWord("true"); break;
      case 'f': expectWord("false"); break;
      case 'n': expectWord("null"); break;
      default:
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        else
            parseNumber();
    }
}

bool
JsonReader::readHex4(unsigned &out)
{
    if (pos_ + 4 > text_.size()) {
        fail("truncated \\u escape");
        return false;
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
        const char h = text_[pos_ + static_cast<std::size_t>(i)];
        unsigned digit = 0;
        if (h >= '0' && h <= '9')
            digit = static_cast<unsigned>(h - '0');
        else if (h >= 'a' && h <= 'f')
            digit = static_cast<unsigned>(h - 'a') + 10u;
        else if (h >= 'A' && h <= 'F')
            digit = static_cast<unsigned>(h - 'A') + 10u;
        else {
            fail("invalid hex digit in \\u escape");
            return false;
        }
        out = (out << 4) | digit;
    }
    pos_ += 4;
    return true;
}

void
JsonReader::appendUnicodeEscape(std::string &out)
{
    unsigned code = 0;
    if (!readHex4(code))
        return;
    if (code >= 0xD800u && code <= 0xDBFFu) {
        // High surrogate: a \uDC00-\uDFFF low surrogate must follow.
        if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
            text_[pos_ + 1] != 'u') {
            fail("unpaired high surrogate in \\u escape");
            return;
        }
        pos_ += 2;
        unsigned low = 0;
        if (!readHex4(low))
            return;
        if (low < 0xDC00u || low > 0xDFFFu) {
            fail("invalid low surrogate in \\u escape");
            return;
        }
        code = 0x10000u + ((code - 0xD800u) << 10) + (low - 0xDC00u);
    } else if (code >= 0xDC00u && code <= 0xDFFFu) {
        fail("unpaired low surrogate in \\u escape");
        return;
    }
    if (code < 0x80u) {
        out += static_cast<char>(code);
    } else if (code < 0x800u) {
        out += static_cast<char>(0xC0u | (code >> 6));
        out += static_cast<char>(0x80u | (code & 0x3Fu));
    } else if (code < 0x10000u) {
        out += static_cast<char>(0xE0u | (code >> 12));
        out += static_cast<char>(0x80u | ((code >> 6) & 0x3Fu));
        out += static_cast<char>(0x80u | (code & 0x3Fu));
    } else {
        out += static_cast<char>(0xF0u | (code >> 18));
        out += static_cast<char>(0x80u | ((code >> 12) & 0x3Fu));
        out += static_cast<char>(0x80u | ((code >> 6) & 0x3Fu));
        out += static_cast<char>(0x80u | (code & 0x3Fu));
    }
}

void
JsonReader::expectWord(const char *word)
{
    for (const char *p = word; *p != '\0'; ++p) {
        if (pos_ >= text_.size() || text_[pos_] != *p) {
            fail(std::string("expected '") + word + "'");
            return;
        }
        ++pos_;
    }
}

void
appendJsonString(std::string &out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace ebs::obs
