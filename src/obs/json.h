#ifndef EBS_OBS_JSON_H
#define EBS_OBS_JSON_H

#include <cstddef>
#include <string>
#include <string_view>

namespace ebs::obs {

/**
 * The repo's one JSON reader: a strict pull parser over a document held
 * in memory, shared by the paper-metric diff (stats::parseBenchResults)
 * and the trace tool (tools/trace_summarize).
 *
 * It covers all of JSON: objects, arrays, strings (every standard
 * escape, \uXXXX decoded to UTF-8 with surrogate pairs combined),
 * numbers, true, false and null, separated by JSON's four whitespace
 * bytes. Nothing is materialized unless the caller asks: the caller
 * walks the document with parseObjectWith()/parseArrayWith() and reads
 * the values it wants with parseString()/parseNumber(); skipValue()
 * validates and drops the rest, so a large trace is never held as a
 * tree. The first error (malformed text, or a value of the wrong kind
 * where the caller asked for one) is kept with its byte offset, and
 * parseObjectWith()/parseArrayWith() return as soon as a callback
 * leaves the reader failed.
 */
class JsonReader
{
  public:
    /** `text` must outlive the reader; the first error goes to `*error`
     * when non-null. */
    JsonReader(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool failed() const { return failed_; }

    /** Record an error at the current offset (only the first is kept). */
    void fail(const std::string &what);

    /** The first byte of the next value, or '\0' at the end. */
    char peek();

    /** True when the next value is a number ('-' or a digit). */
    bool
    peekNumber()
    {
        const char c = peek();
        return c == '-' || (c >= '0' && c <= '9');
    }

    /** Fail unless only whitespace is left; returns !failed(). */
    bool finish();

    /** Read a string value. Raw control bytes, unknown escapes and
     * malformed \u escapes fail the parse. */
    std::string parseString();

    /** Read a number value in JSON's grammar (no `+`, `.5`, `1.`, hex,
     * `nan` or `inf`); anything else fails the parse. */
    double parseNumber();

    /** Validate and drop one value of any kind. */
    void skipValue();

    /**
     * Read an object; for each member calls `member(key)`, which must
     * consume the member's value (skipValue() when it is not wanted).
     */
    template <typename Fn>
    void
    parseObjectWith(Fn &&member)
    {
        if (!consume('{')) {
            fail("expected object");
            return;
        }
        if (consume('}'))
            return;
        for (;;) {
            const std::string key = parseString();
            if (failed_)
                return;
            if (!consume(':')) {
                fail("expected ':'");
                return;
            }
            member(key);
            if (failed_)
                return;
            if (consume(','))
                continue;
            if (!consume('}'))
                fail("expected ',' or '}'");
            return;
        }
    }

    /** Read an array; `element()` must consume each element. */
    template <typename Fn>
    void
    parseArrayWith(Fn &&element)
    {
        if (!consume('[')) {
            fail("expected array");
            return;
        }
        if (consume(']'))
            return;
        for (;;) {
            element();
            if (failed_)
                return;
            if (consume(','))
                continue;
            if (!consume(']'))
                fail("expected ',' or ']'");
            return;
        }
    }

  private:
    void skipWs();
    bool consume(char c);
    bool readHex4(unsigned &out);
    void appendUnicodeEscape(std::string &out);
    void expectWord(const char *word);

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/**
 * Append `text` as a JSON string literal, quotes included: `"` and `\`
 * are backslash-escaped, control bytes become \n, \r, \t or \u00xx, and
 * every other byte (UTF-8 included) is copied as is, so JsonReader
 * reads back exactly `text`. The repo's one JSON string escaper.
 */
void appendJsonString(std::string &out, std::string_view text);

} // namespace ebs::obs

#endif // EBS_OBS_JSON_H
