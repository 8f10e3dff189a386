/**
 * @file
 * Fixed-layout binary serialization helpers shared by the write-ahead
 * event journal and the checkpoint/restore machinery (engine/journal,
 * engine/checkpoint).  Every multi-byte value is written little-endian
 * byte by byte, so the on-disk format is identical across hosts, and
 * doubles round-trip through their IEEE-754 bit patterns — the property
 * the crash-recovery tests rely on for bit-identical resumed reports.
 *
 * ByteReader is deliberately paranoid: every read is bounds-checked and
 * a short buffer raises fatal() with the exact byte offset, so a
 * truncated or gnawed-on file can never be silently half-parsed.
 *
 * Each wire record's layout is written once, as a codec template
 *
 *     template <class Io, WireOf<T> R> void codec(Io &io, R &r);
 *
 * that runs over one of two adapters with the same member names:
 * WireWriter appends each field (R = const T), WireReader reads it
 * back (R = T) and applies the checks every decoder shares — counts
 * must fit in the bytes left, enum and flag bytes must be in range,
 * integers must fit their field, and codec-stated index bounds
 * (check()) must hold — each a fatal() naming the byte offset.
 * Value records decode into a temporary and commit only once whole;
 * resumable objects are restored into instances built for the resume.
 */

#ifndef EDGEREASON_COMMON_BINIO_HH
#define EDGEREASON_COMMON_BINIO_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace edgereason {

/** Append-only little-endian byte buffer. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** IEEE-754 bit pattern: exact double round-trip. */
    void f64(double v);
    /** Length-prefixed string (u32 length + raw bytes). */
    void str(std::string_view s);

    const std::string &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked reader over a byte buffer (borrowed; must outlive the
 * reader).  Reads past the end raise fatal() with the offset.
 */
class ByteReader
{
  public:
    /** @param base  offset of @p data in its file: every reported
     *  offset (offset(), fatal messages) is base-relative. */
    explicit ByteReader(std::string_view data, std::size_t base = 0)
        : data_(data), base_(base)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();

    std::size_t offset() const { return base_ + pos_; }
    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }
    /** fatal() unless the buffer was consumed exactly. */
    void expectEnd(const char *what) const;

  private:
    void need(std::size_t n) const;

    std::string_view data_;
    std::size_t base_ = 0;
    std::size_t pos_ = 0;
};

/** R is T or const T: lets one codec template serve both directions. */
template <class R, class T>
concept WireOf = std::same_as<std::remove_const_t<R>, T>;

/** Encoding adapter: a codec run over it appends each field. */
class WireWriter
{
  public:
    static constexpr bool kDecoding = false;
    explicit WireWriter(ByteWriter &w) : w_(w) {}

    template <class T> void u8(const T &v) { w_.u8(std::uint8_t(v)); }
    template <class T> void u32(const T &v) { w_.u32(std::uint32_t(v)); }
    template <class T> void u64(const T &v) { w_.u64(std::uint64_t(v)); }
    template <class T> void i64(const T &v) { w_.i64(std::int64_t(v)); }
    void f64(double v) { w_.f64(v); }
    void str(std::string_view s) { w_.str(s); }
    /** Bool as one byte, 0 or 1. */
    void flag(bool v) { w_.u8(v ? 1 : 0); }
    /** Enum (or small int) as one byte in [0, last]. */
    template <class E> void choice(const E &v, E, const char *) { u8(v); }
    /** List length (u64); see WireReader::count. */
    void count(std::size_t n, std::size_t) { w_.u64(n); }
    /** Decode-side check; encoding trusts the live state. */
    template <class... A> void check(bool, const A &...) {}
    /** count(), then each element through @p item. */
    template <class V, class F>
    void list(const V &v, std::size_t min_item_bytes, F &&item)
    {
        count(v.size(), min_item_bytes);
        for (const auto &x : v)
            item(x);
    }
    /** A nested record, through its own serialize(). */
    template <class T> void obj(const T &x)
    {
        if constexpr (requires { x.serialize(w_); })
            x.serialize(w_);
        else
            serialize(w_, x);
    }
    ByteWriter &writer() { return w_; }

  private:
    ByteWriter &w_;
};

/** Decoding adapter: a codec run over it reads each field back. */
class WireReader
{
  public:
    static constexpr bool kDecoding = true;
    explicit WireReader(ByteReader &r) : r_(r) {}

    /** Integers must fit their field. */
    template <class T> void u8(T &v) { v = fit<T>(r_.u8(), 1); }
    template <class T> void u32(T &v) { v = fit<T>(r_.u32(), 4); }
    template <class T> void u64(T &v) { v = fit<T>(r_.u64(), 8); }
    template <class T> void i64(T &v) { v = fit<T>(r_.i64(), 8); }
    void f64(double &v) { v = r_.f64(); }
    void str(std::string &s) { s = r_.str(); }
    void flag(bool &v)
    {
        const std::uint8_t b = r_.u8();
        if (b > 1)
            fail(1, detail::concat("flag byte ", int(b)));
        v = b != 0;
    }
    template <class E> void choice(E &v, E last, const char *what)
    {
        const std::uint8_t b = r_.u8();
        if (b > std::uint8_t(last))
            fail(1, detail::concat("invalid ", what, " ", int(b)));
        v = static_cast<E>(b);
    }
    /** The length of a list whose elements take at least
     *  @p min_item_bytes (>= 1) each must fit in the bytes left. */
    void count(std::size_t &n, std::size_t min_item_bytes)
    {
        const std::uint64_t c = r_.u64();
        if (c > r_.remaining() / min_item_bytes)
            fail(8, detail::concat("count ", c, " exceeds the ",
                                   r_.remaining(), " byte(s) left"));
        n = static_cast<std::size_t>(c);
    }
    /** fatal() naming the offset reached unless @p ok. */
    template <class... A> void check(bool ok, const A &...what)
    {
        if (!ok)
            fail(0, detail::concat(what...));
    }
    template <class V, class F>
    void list(V &v, std::size_t min_item_bytes, F &&item)
    {
        std::size_t n = 0;
        count(n, min_item_bytes);
        v.clear();
        v.resize(n);
        for (auto &x : v)
            item(x);
    }
    /** A nested record, through its own restore(). */
    template <class T> void obj(T &x)
    {
        if constexpr (requires { x.restore(r_); })
            x.restore(r_);
        else
            restore(r_, x);
    }
    ByteReader &reader() { return r_; }

  private:
    template <class T, class W> T fit(W w, std::size_t width)
    {
        if (!std::in_range<T>(w))
            fail(width, detail::concat("value ", +w, " out of range"));
        return static_cast<T>(w);
    }
    /** fatal() naming the field that ends at the current offset and
     *  is @p width bytes wide (0: the record read so far). */
    [[noreturn]] void fail(std::size_t width, const std::string &what) const;

    ByteReader &r_;
};

/**
 * FNV-1a over a byte range, seedable for chaining.  The journal and
 * checkpoint formats use it as their corruption checksum; it is not
 * cryptographic and does not need to be (the threat model is torn
 * writes and bit rot, not an adversary).
 */
std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t h = 0xCBF29CE484222325ULL);

/**
 * Header-inline FNV-1a for small fixed-size keys on hot memoization
 * paths (OpenHashMap): identical output to fnv1a(), but the byte loop
 * is visible to the compiler, which fully unrolls it for the ~24-byte
 * trivially-copyable keys the caches use — the out-of-line call was a
 * measurable fraction of the serving fast-forward path.
 */
inline std::uint64_t
fnv1aInline(const char *data, std::size_t n,
            std::uint64_t h = 0xCBF29CE484222325ULL)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace edgereason

#endif // EDGEREASON_COMMON_BINIO_HH
