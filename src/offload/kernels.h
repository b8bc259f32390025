/**
 * @file
 * Functional datapath kernels for the offload stages (wave::offload).
 *
 * These are real, self-contained implementations — software AES-128-CTR
 * and SHA-256, a Toeplitz (RSS) hash, a first-match ACL table, a
 * minimal HTTP/1.x request parser, an Aho-Corasick literal scanner (the
 * Hyperscan-style pre-filter stand-in for "regex scan"), a count-min
 * sketch, and a HyperLogLog — not latency stand-ins. The *time* a stage
 * charges comes from the calibrated table in offload/costs.h; running
 * the genuine transforms keeps the stages honest (known-answer tests in
 * tests/offload_test.cc validate AES against NIST SP 800-38A / FIPS-197
 * and SHA-256 against FIPS 180 vectors) and gives downstream stages
 * real bytes and digests to consume.
 *
 * Construction may allocate (tables, automata); the per-packet entry
 * points are allocation-free and marked wave-hot.
 */
// wave-domain: neutral
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "offload/packet.h"

namespace wave::offload {

// ---------------------------------------------------------------------------
// Toeplitz (RSS) hash
// ---------------------------------------------------------------------------

/** 40-byte Toeplitz key, enough for an IPv4 4-tuple window. */
struct ToeplitzKey {
    std::array<std::uint8_t, 40> bytes;
};

/** The de-facto standard RSS key used by most NIC drivers. */
ToeplitzKey DefaultRssKey();

/** Toeplitz hash of @p len bytes (len <= 36) under @p key. */
std::uint32_t ToeplitzHash(const ToeplitzKey& key, const std::uint8_t* data,
                           std::size_t len);

/** Toeplitz hash over the canonical src/dst ip+port RSS input. */
std::uint32_t ToeplitzHashTuple(const ToeplitzKey& key, const FiveTuple& t);

// ---------------------------------------------------------------------------
// AES-128 (encrypt-only) + CTR mode
// ---------------------------------------------------------------------------

/** Software AES-128 with precomputed round keys; encrypt-only. */
class Aes128 {
  public:
    explicit Aes128(const std::array<std::uint8_t, 16>& key);

    /** Encrypts one 16-byte block (FIPS-197). */
    void EncryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;

    /**
     * CTR-mode keystream XOR over @p len bytes in place, starting from
     * the big-endian 16-byte counter block @p counter (SP 800-38A:
     * the counter increments as one 128-bit big-endian integer).
     * Encryption and decryption are the same operation.
     */
    void CtrCrypt(const std::array<std::uint8_t, 16>& counter,
                  std::uint8_t* data, std::size_t len) const;

  private:
    std::array<std::uint8_t, 176> round_keys_;  ///< 11 round keys
};

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

/** Incremental software SHA-256 (FIPS 180-4). */
class Sha256 {
  public:
    Sha256() { Reset(); }

    void Reset();
    void Update(const std::uint8_t* data, std::size_t len);
    std::array<std::uint8_t, 32> Finish();

    /** One-shot digest of a buffer. */
    static std::array<std::uint8_t, 32> Digest(const std::uint8_t* data,
                                               std::size_t len);

  private:
    void Compress(const std::uint8_t block[64]);

    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, 64> buffer_;
    std::uint64_t total_len_ = 0;
    std::size_t buffered_ = 0;
};

// ---------------------------------------------------------------------------
// Firewall ACL
// ---------------------------------------------------------------------------

/** One prefix/port/proto rule; first match wins (rule order = priority). */
struct AclRule {
    std::uint32_t src_addr = 0;
    std::uint32_t src_mask = 0;  ///< 0 = any source
    std::uint32_t dst_addr = 0;
    std::uint32_t dst_mask = 0;  ///< 0 = any destination
    std::uint16_t dst_port_lo = 0;
    std::uint16_t dst_port_hi = 0xffff;
    std::uint8_t proto = 0;  ///< 0 = any protocol
    bool allow = false;
};

/** First-match linear ACL, the classic software firewall fast path. */
class AclTable {
  public:
    AclTable(std::vector<AclRule> rules, bool default_allow);

    struct Verdict {
        bool allow;
        int rule;  ///< matching rule index, -1 for the default action
    };

    Verdict Lookup(const FiveTuple& t) const;

  private:
    std::vector<AclRule> rules_;
    bool default_allow_;
};

// ---------------------------------------------------------------------------
// HTTP request parser
// ---------------------------------------------------------------------------

enum class HttpMethod : std::uint8_t {
    kGet,
    kPost,
    kPut,
    kDelete,
    kHead,
    kOther,
};

/** Parsed request-line + header summary (offsets into the input). */
struct HttpRequest {
    HttpMethod method = HttpMethod::kOther;
    std::uint16_t uri_begin = 0;
    std::uint16_t uri_len = 0;
    std::uint8_t version_minor = 0;  ///< HTTP/1.<minor>
    std::uint16_t num_headers = 0;
    std::uint32_t content_length = 0;
    std::uint16_t header_bytes = 0;  ///< bytes up to and incl. CRLFCRLF
};

/**
 * Parses "METHOD SP URI SP HTTP/1.x CRLF (name: value CRLF)* CRLF".
 * Returns false (leaving @p out partially filled) on malformed input:
 * missing tokens, bare LF, non-1.x version, a header without a colon,
 * or a request that never terminates within @p len.
 */
bool ParseHttpRequest(const std::uint8_t* data, std::size_t len,
                      HttpRequest* out);

// ---------------------------------------------------------------------------
// Literal multi-pattern scanner (Aho-Corasick)
// ---------------------------------------------------------------------------

/**
 * Aho-Corasick automaton over byte strings: the literal pre-filter that
 * IDS-style regex engines (Hyperscan, Snort) run on every payload.
 * Build allocates; Scan is allocation-free.
 */
class SignatureScanner {
  public:
    explicit SignatureScanner(const std::vector<std::string>& patterns);

    /** Total pattern occurrences in the buffer (overlaps counted). */
    std::uint32_t Scan(const std::uint8_t* data, std::size_t len) const;

  private:
    // Flattened goto table: next_[state * 256 + byte], plus the number
    // of pattern ends reachable from each state via suffix links.
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> out_count_;
};

// ---------------------------------------------------------------------------
// Count-min sketch
// ---------------------------------------------------------------------------

/** Count-min sketch over 64-bit keys; width is a power of two. */
class CountMinSketch {
  public:
    CountMinSketch(std::size_t width_log2, std::size_t depth);

    void Add(std::uint64_t key, std::uint64_t count = 1);

    /** Point estimate: never under the true count. */
    std::uint64_t Estimate(std::uint64_t key) const;

    std::uint64_t TotalAdded() const { return total_; }
    std::size_t Width() const { return mask_ + 1; }

  private:
    std::size_t RowIndex(std::size_t row, std::uint64_t key) const;

    std::vector<std::uint64_t> cells_;  ///< depth_ rows of (mask_+1)
    std::size_t mask_;
    std::size_t depth_;
    std::uint64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// HyperLogLog
// ---------------------------------------------------------------------------

/** HyperLogLog cardinality sketch over pre-hashed 64-bit values. */
class HyperLogLog {
  public:
    explicit HyperLogLog(int precision_bits = 10);

    /** Adds one *hashed* value (hash your key first). */
    void Add(std::uint64_t hash);

    /** Estimated distinct count, with small-range linear counting. */
    double Estimate() const;

  private:
    std::vector<std::uint8_t> registers_;
    int precision_bits_;
};

// ---------------------------------------------------------------------------
// Payload materialization helpers
// ---------------------------------------------------------------------------

// wave-hot: begin
/** splitmix64: the stateless mixer the sketches and fillers share. */
inline std::uint64_t
Mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}
// wave-hot: end

/** Fills @p len bytes deterministically from @p seed (xorshift64*). */
void FillRandomBytes(std::uint64_t seed, std::uint8_t* out, std::size_t len);

/**
 * Renders "GET /kv/<key> HTTP/1.1\r\nHost: ...\r\n...\r\n\r\n" into
 * @p out (capacity @p cap) and returns the rendered length (0 if it
 * does not fit). Allocation-free: digits are formatted by hand.
 */
std::size_t RenderHttpGet(std::uint32_t key, std::uint8_t* out,
                          std::size_t cap);

}  // namespace wave::offload
