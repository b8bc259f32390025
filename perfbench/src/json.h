/**
 * @file
 * Minimal JSON object writer for the benchmark's one-line report.
 */
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** Builds one JSON object; numbers keep all their digits. */
class JsonObject {
  public:
    JsonObject& Num(const std::string& key, double v)
    {
        return Raw(key, Number(v));
    }

    JsonObject& Int(const std::string& key, std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, v);
        return Raw(key, buf);
    }

    JsonObject& Str(const std::string& key, const std::string& v)
    {
        return Raw(key, Quote(v));
    }

    JsonObject& Nums(const std::string& key, const std::vector<double>& vs)
    {
        std::string out = "[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            if (i > 0) out += ", ";
            out += Number(vs[i]);
        }
        return Raw(key, out + "]");
    }

    JsonObject& Raw(const std::string& key, const std::string& json)
    {
        if (!body_.empty()) body_ += ", ";
        body_ += Quote(key) + ": " + json;
        return *this;
    }

    std::string Str() const { return "{" + body_ + "}"; }

    static std::string Number(double v)
    {
        if (!std::isfinite(v)) return "null";
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    static std::string Quote(const std::string& s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\') out += '\\';
            out += c;
        }
        return out + "\"";
    }

    static std::string Hex(std::uint64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
        return Quote(buf);
    }

  private:
    std::string body_;
};

/** Joins already-serialized JSON values into an array. */
inline std::string
JsonArray(const std::vector<std::string>& items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ", ";
        out += items[i];
    }
    return out + "]";
}

}  // namespace perfbench
