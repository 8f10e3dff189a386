#include "engine/kv_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edgereason {
namespace engine {

namespace {

/** Serialized prefix-index section marker ("PRFX"). */
constexpr std::uint32_t kPrefixIndexMagic = 0x58465250u;

} // namespace

const char *
prefixEvictPolicyName(PrefixEvictPolicy p)
{
    switch (p) {
      case PrefixEvictPolicy::Lru:
        return "lru";
      case PrefixEvictPolicy::Cost:
        return "cost";
    }
    return "?";
}

KvCache::KvCache(Bytes capacity_bytes, const model::TransformerSpec &spec,
                 Tokens block_tokens, PrefixCacheConfig prefix)
    : block_tokens_(block_tokens), prefix_(prefix)
{
    fatal_if(block_tokens < 1, "block size must be >= 1 token");
    fatal_if(capacity_bytes <= 0, "KV cache capacity must be positive");
    block_bytes_ = static_cast<Bytes>(
        spec.kvBytesPerToken() * static_cast<double>(block_tokens));
    fatal_if(block_bytes_ <= 0, "degenerate block byte size");
    block_capacity_ = static_cast<std::size_t>(
        capacity_bytes / block_bytes_);
    fatal_if(block_capacity_ == 0,
             "KV capacity ", capacity_bytes, " B too small for one block (",
             block_bytes_, " B) of ", spec.name);
    blocks_.reserve(std::min<std::size_t>(block_capacity_, 1 << 16));
}

SeqId
KvCache::createSequence()
{
    const SeqId id = next_seq_++;
    seqs_.emplace(id, Sequence{});
    return id;
}

std::uint32_t
KvCache::allocBlock()
{
    panic_if(blocks_in_use_ >= block_capacity_,
             "allocBlock called with no free capacity");
    ++blocks_in_use_;
    if (!free_list_.empty()) {
        const std::uint32_t b = free_list_.back();
        free_list_.pop_back();
        blocks_[b] = Block{1, 0};
        return b;
    }
    blocks_.push_back(Block{1, 0});
    return static_cast<std::uint32_t>(blocks_.size() - 1);
}

void
KvCache::unref(std::uint32_t block)
{
    Block &b = blocks_.at(block);
    panic_if(b.refcount <= 0, "unref of dead block");
    if (--b.refcount == 0) {
        --blocks_in_use_;
        free_list_.push_back(block);
    }
}

bool
KvCache::append(SeqId seq, Tokens n)
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "append to unknown sequence ", seq);
    panic_if(n < 0, "negative append");
    Sequence &s = it->second;
    if (n == 0)
        return true;

    // Appends are transactional: compute the block demand up front and
    // reject without mutating when it cannot be met (callers rely on
    // "false" meaning "nothing happened").
    Tokens tail_space = 0;
    bool cow_needed = false;
    if (!s.blocks.empty()) {
        const Block &tail = blocks_[s.blocks.back()];
        if (tail.filled < block_tokens_) {
            tail_space = block_tokens_ - tail.filled;
            cow_needed = tail.refcount > 1;
        }
    }
    const Tokens beyond_tail = std::max<Tokens>(0, n - tail_space);
    const std::size_t new_blocks =
        static_cast<std::size_t>((beyond_tail + block_tokens_ - 1) /
                                 block_tokens_) +
        (cow_needed ? 1 : 0);
    // Under pressure, reclaim unreferenced index pages before rejecting;
    // eviction never touches a page a live sequence still shares.
    if (prefix_.enabled) {
        while (blocks_in_use_ + new_blocks > block_capacity_ &&
               evictOnePrefixBlock()) {
        }
    }
    if (blocks_in_use_ + new_blocks > block_capacity_)
        return false;

    while (n > 0) {
        // Copy-on-write the tail block if it is shared or missing/full.
        bool need_block = s.blocks.empty();
        if (!need_block) {
            const Block &tail = blocks_[s.blocks.back()];
            need_block = tail.filled >= block_tokens_;
        }
        bool need_cow = false;
        if (!need_block) {
            const Block &tail = blocks_[s.blocks.back()];
            need_cow = tail.refcount > 1;
        }
        if (need_block || need_cow) {
            panic_if(blocks_in_use_ >= block_capacity_,
                     "append pre-check admitted an unservable append");
            const Tokens keep = need_cow
                ? blocks_[s.blocks.back()].filled : 0;
            const std::uint32_t nb = allocBlock();
            if (need_cow) {
                blocks_[nb].filled = keep;
                unref(s.blocks.back());
                s.blocks.back() = nb;
            } else {
                s.blocks.push_back(nb);
            }
        }
        Block &tail = blocks_[s.blocks.back()];
        const Tokens space = block_tokens_ - tail.filled;
        const Tokens take = std::min(space, n);
        tail.filled += take;
        s.tokens += take;
        n -= take;
    }
    return true;
}

SeqId
KvCache::fork(SeqId seq)
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "fork of unknown sequence ", seq);
    const SeqId id = next_seq_++;
    Sequence child = it->second;
    for (std::uint32_t b : child.blocks)
        ++blocks_[b].refcount;
    seqs_.emplace(id, std::move(child));
    return id;
}

void
KvCache::release(SeqId seq)
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "release of unknown sequence ", seq);
    for (std::uint32_t b : it->second.blocks)
        unref(b);
    seqs_.erase(it);
}

Tokens
KvCache::sequenceTokens(SeqId seq) const
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "unknown sequence ", seq);
    return it->second.tokens;
}

std::size_t
KvCache::sequenceBlocks(SeqId seq) const
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "unknown sequence ", seq);
    return it->second.blocks.size();
}

Bytes
KvCache::bytesInUse() const
{
    return static_cast<Bytes>(blocks_in_use_) * block_bytes_;
}

Tokens
KvCache::freeTokenCapacity() const
{
    const std::size_t free_blocks = block_capacity_ - blocks_in_use_;
    return static_cast<Tokens>(free_blocks) * block_tokens_;
}

Tokens
KvCache::freeTokenCapacity(SeqId seq) const
{
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "unknown sequence ", seq);
    const Sequence &s = it->second;
    const Tokens whole = freeTokenCapacity();
    if (s.blocks.empty())
        return whole;
    const Block &tail = blocks_[s.blocks.back()];
    if (tail.filled >= block_tokens_)
        return whole; // exactly-full tail: no slack, next token opens a block
    const Tokens slack = block_tokens_ - tail.filled;
    if (tail.refcount <= 1)
        return whole + slack;
    // Shared partial tail: the first write copies it, consuming one free
    // block whose usable space is only the slack.
    if (whole == 0)
        return 0;
    return whole - tail.filled;
}

// --- Cross-request prefix index --------------------------------------

std::size_t
KvCache::indexedBlocks() const
{
    return by_hash_.size();
}

Tokens
KvCache::peekPrefix(const std::vector<std::uint64_t> &hashes,
                    Tokens max_tokens) const
{
    if (!prefix_.enabled)
        return 0;
    Tokens matched = 0;
    for (std::size_t i = 0; i < hashes.size(); ++i) {
        if (matched + block_tokens_ > max_tokens)
            break;
        const auto f = by_hash_.find(hashes[i]);
        if (f == by_hash_.end())
            break;
        matched += block_tokens_;
    }
    return matched;
}

Tokens
KvCache::acquirePrefix(SeqId seq, const std::vector<std::uint64_t> &hashes,
                       Tokens max_tokens)
{
    if (!prefix_.enabled)
        return 0;
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "acquirePrefix on unknown sequence ", seq);
    Sequence &s = it->second;
    panic_if(!s.blocks.empty() || s.tokens != 0,
             "acquirePrefix requires an empty sequence");
    const std::size_t usable = std::min<std::size_t>(
        hashes.size(),
        static_cast<std::size_t>(
            std::max<Tokens>(0, max_tokens) / block_tokens_));
    std::size_t matched = 0;
    for (std::size_t i = 0; i < usable; ++i) {
        const auto f = by_hash_.find(hashes[i]);
        if (f == by_hash_.end())
            break;
        PrefixNode &nd = nodes_[f->second];
        panic_if(nd.depth != i, "prefix chain depth mismatch");
        nd.lastTouch = ++touch_clock_;
        ++blocks_[nd.block].refcount;
        s.blocks.push_back(nd.block);
        s.tokens += block_tokens_;
        ++matched;
    }
    pstats_.hitBlocks += matched;
    pstats_.missBlocks += usable - matched;
    pstats_.hitTokens +=
        static_cast<double>(matched) * static_cast<double>(block_tokens_);
    pstats_.hitBytes +=
        static_cast<double>(matched) * static_cast<double>(block_bytes_);
    pstats_.missBytes += static_cast<double>(usable - matched) *
        static_cast<double>(block_bytes_);
    return static_cast<Tokens>(matched) * block_tokens_;
}

std::size_t
KvCache::insertPrefix(SeqId seq, const std::vector<std::uint64_t> &hashes,
                      const std::vector<double> &rebuild_seconds)
{
    if (!prefix_.enabled || hashes.empty())
        return 0;
    fatal_if(rebuild_seconds.size() != hashes.size(),
             "insertPrefix: rebuild cost vector length mismatch (",
             rebuild_seconds.size(), " vs ", hashes.size(), " hashes)");
    auto it = seqs_.find(seq);
    fatal_if(it == seqs_.end(), "insertPrefix on unknown sequence ", seq);
    const Sequence &s = it->second;
    const std::size_t n = std::min(hashes.size(), s.blocks.size());
    std::uint32_t parent = kNoNode;
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t b = s.blocks[i];
        if (blocks_[b].filled != block_tokens_)
            break; // only full blocks are content-addressable
        const auto f = by_hash_.find(hashes[i]);
        if (f != by_hash_.end()) {
            // Already indexed (possibly via another physical copy); the
            // index keeps its page, we just refresh recency and descend.
            PrefixNode &nd = nodes_[f->second];
            panic_if(nd.depth != i, "prefix chain depth mismatch");
            nd.lastTouch = ++touch_clock_;
            parent = f->second;
            continue;
        }
        std::uint32_t nid;
        if (!node_free_.empty()) {
            nid = node_free_.back();
            node_free_.pop_back();
        } else {
            nid = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        PrefixNode &nd = nodes_[nid];
        nd = PrefixNode{};
        nd.hash = hashes[i];
        nd.block = b;
        nd.parent = parent;
        nd.depth = static_cast<std::uint32_t>(i);
        nd.children = 0;
        nd.lastTouch = ++touch_clock_;
        nd.insertSeq = ++insert_clock_;
        nd.rebuildSeconds = rebuild_seconds[i];
        nd.live = true;
        ++blocks_[b].refcount; // the index's own reference
        if (parent != kNoNode)
            ++nodes_[parent].children;
        by_hash_.emplace(hashes[i], nid);
        parent = nid;
        ++inserted;
        ++pstats_.insertedBlocks;
    }
    return inserted;
}

bool
KvCache::evictOnePrefixBlock()
{
    // Victim: a live LEAF whose page only the index references
    // (refcount 1).  Interior nodes are never reclaimed before their
    // descendants, and pages shared with live sequences are never
    // reclaimed at all.  Ties are broken by (lastTouch, insertSeq), both
    // drawn from strictly monotone logical clocks, so the choice is
    // deterministic regardless of node-table iteration order.
    std::uint32_t victim = kNoNode;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(nodes_.size()); ++i) {
        const PrefixNode &nd = nodes_[i];
        if (!nd.live || nd.children != 0)
            continue;
        if (blocks_[nd.block].refcount != 1)
            continue;
        if (victim == kNoNode) {
            victim = i;
            continue;
        }
        const PrefixNode &v = nodes_[victim];
        const bool lru_before = nd.lastTouch < v.lastTouch ||
            (nd.lastTouch == v.lastTouch && nd.insertSeq < v.insertSeq);
        bool better;
        if (prefix_.evict == PrefixEvictPolicy::Lru) {
            better = lru_before;
        } else {
            // Cost-aware: reclaim the cheapest page first, where cost is
            // bytes × rebuild-prefill-seconds.
            const double ca = static_cast<double>(block_bytes_) *
                nd.rebuildSeconds;
            const double cb = static_cast<double>(block_bytes_) *
                v.rebuildSeconds;
            better = ca < cb || (ca == cb && lru_before);
        }
        if (better)
            victim = i;
    }
    if (victim == kNoNode)
        return false;
    PrefixNode &nd = nodes_[victim];
    by_hash_.erase(nd.hash);
    if (nd.parent != kNoNode)
        --nodes_[nd.parent].children;
    unref(nd.block);
    nd.live = false;
    node_free_.push_back(victim);
    ++pstats_.evictions;
    pstats_.evictedBytes += static_cast<double>(block_bytes_);
    return true;
}

void
KvCache::auditConservation() const
{
    std::vector<std::int64_t> refs(blocks_.size(), 0);
    for (const auto &[id, s] : seqs_)
        for (std::uint32_t b : s.blocks)
            ++refs[b];
    std::size_t live_nodes = 0;
    std::vector<std::uint32_t> child_census(nodes_.size(), 0);
    for (const PrefixNode &nd : nodes_) {
        if (!nd.live)
            continue;
        ++live_nodes;
        ++refs[nd.block];
        panic_if(blocks_[nd.block].filled != block_tokens_,
                 "prefix audit: index page ", nd.block, " not full");
        const auto f = by_hash_.find(nd.hash);
        panic_if(f == by_hash_.end() || !(nodes_[f->second].hash == nd.hash),
                 "prefix audit: live node missing from hash map");
        if (nd.parent != kNoNode) {
            panic_if(!nodes_[nd.parent].live,
                     "prefix audit: dangling parent link");
            ++child_census[nd.parent];
        }
    }
    panic_if(live_nodes != by_hash_.size(),
             "prefix audit: node/map census mismatch (", live_nodes,
             " live nodes vs ", by_hash_.size(), " keys)");
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        panic_if(nodes_[i].live && nodes_[i].children != child_census[i],
                 "prefix audit: child count drift at node ", i);
    std::size_t in_use = 0;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        panic_if(refs[b] != blocks_[b].refcount,
                 "prefix audit: block ", b, " refcount ",
                 blocks_[b].refcount, " != ", refs[b],
                 " (sequence + index references)");
        if (blocks_[b].refcount > 0)
            ++in_use;
    }
    panic_if(in_use != blocks_in_use_,
             "prefix audit: blocksInUse ", blocks_in_use_,
             " != live census ", in_use);
    for (std::uint32_t f : free_list_)
        panic_if(blocks_[f].refcount != 0,
                 "prefix audit: free-list block ", f, " still referenced");
}

template <class Io, class Self>
void
KvCache::flatCodec(Io &io, Self &kv)
{
    // Geometry is the instance's own: written for the reader to check.
    Tokens blockTokens = kv.block_tokens_;
    Bytes blockBytes = kv.block_bytes_;
    std::size_t blockCap = kv.block_capacity_;
    io.i64(blockTokens);
    io.i64(blockBytes);
    io.u64(blockCap);
    io.check(blockTokens == kv.block_tokens_ &&
                 blockBytes == kv.block_bytes_ &&
                 blockCap == kv.block_capacity_,
             "KvCache restore: geometry mismatch (checkpoint ", blockCap,
             " blocks of ", blockTokens, " tokens vs instance ",
             kv.block_capacity_, " blocks of ", kv.block_tokens_,
             " tokens)");
    io.u64(kv.blocks_in_use_);
    io.u64(kv.next_seq_);
    io.list(kv.blocks_, 4 + 8, [&](auto &b) {
        io.u32(b.refcount);
        io.i64(b.filled);
        io.check(b.filled >= 0 && b.filled <= kv.block_tokens_,
                 "KvCache restore: corrupt block record");
    });
    const std::size_t nBlocks = kv.blocks_.size();
    io.check(nBlocks <= kv.block_capacity_ &&
                 kv.blocks_in_use_ <= nBlocks,
             "KvCache restore: ", kv.blocks_in_use_, " of ", nBlocks,
             " blocks in use overflows the capacity");
    io.list(kv.free_list_, 4, [&](auto &f) {
        io.u32(f);
        io.check(f < nBlocks && kv.blocks_[f].refcount == 0,
                 "KvCache restore: free-list entry ", f,
                 " out of range or live");
    });
    io.check(kv.blocks_in_use_ + kv.free_list_.size() == nBlocks,
             "KvCache restore: ", kv.blocks_in_use_, " used + ",
             kv.free_list_.size(), " free blocks != ", nBlocks);

    // unordered_map iteration order is not deterministic: sequences
    // travel sorted by handle, so identical states emit identical bytes.
    std::vector<std::pair<SeqId, Sequence>> seqs;
    if constexpr (!Io::kDecoding) {
        seqs.assign(kv.seqs_.begin(), kv.seqs_.end());
        std::sort(seqs.begin(), seqs.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
    }
    io.list(seqs, 8 + 8 + 8, [&](auto &e) {
        io.u64(e.first);
        io.i64(e.second.tokens);
        io.list(e.second.blocks, 4, [&](auto &b) {
            io.u32(b);
            io.check(b < nBlocks, "KvCache restore: sequence block ",
                     b, " out of range");
        });
        io.check(e.second.tokens >= 0 &&
                     e.second.tokens <=
                         static_cast<Tokens>(e.second.blocks.size()) *
                             kv.block_tokens_,
                 "KvCache restore: sequence of ", e.second.tokens,
                 " tokens in ", e.second.blocks.size(), " blocks");
        io.check(e.first < kv.next_seq_,
                 "KvCache restore: sequence ", e.first,
                 " at or past the next handle ", kv.next_seq_);
    });
    if constexpr (Io::kDecoding) {
        kv.seqs_.clear();
        kv.seqs_.reserve(seqs.size());
        for (auto &[id, seq] : seqs)
            io.check(kv.seqs_.emplace(id, std::move(seq)).second,
                     "KvCache restore: duplicate sequence ", id);
    }
    if (!kv.prefix_.enabled)
        return;

    // Prefix-index section header; the node table follows it.
    std::uint32_t magic = kPrefixIndexMagic;
    io.u32(magic);
    io.check(magic == kPrefixIndexMagic,
             "KvCache restore: prefix-index section missing — "
             "checkpoint written without --prefix-cache?");
    PrefixEvictPolicy evict = kv.prefix_.evict;
    io.choice(evict, PrefixEvictPolicy::Cost, "eviction policy");
    io.check(evict == kv.prefix_.evict,
             "KvCache restore: eviction policy mismatch (checkpoint ",
             prefixEvictPolicyName(evict), " vs instance ",
             prefixEvictPolicyName(kv.prefix_.evict), ")");
    io.u64(kv.touch_clock_);
    io.u64(kv.insert_clock_);
    io.u64(kv.pstats_.hitBlocks);
    io.u64(kv.pstats_.missBlocks);
    io.u64(kv.pstats_.insertedBlocks);
    io.u64(kv.pstats_.evictions);
    io.f64(kv.pstats_.hitTokens);
    io.f64(kv.pstats_.hitBytes);
    io.f64(kv.pstats_.missBytes);
    io.f64(kv.pstats_.evictedBytes);
}

void
KvCache::serialize(ByteWriter &w) const
{
    WireWriter io(w);
    flatCodec(io, *this);
    if (!prefix_.enabled)
        return;
    // Prefix-index nodes go out sorted by (depth, hash) so two caches
    // holding the same logical index emit identical bytes, and so every
    // node's parent precedes it on restore.
    std::vector<std::uint32_t> live;
    live.reserve(by_hash_.size());
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(nodes_.size()); ++i)
        if (nodes_[i].live)
            live.push_back(i);
    std::sort(live.begin(), live.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  if (nodes_[a].depth != nodes_[b].depth)
                      return nodes_[a].depth < nodes_[b].depth;
                  return nodes_[a].hash < nodes_[b].hash;
              });
    w.u64(live.size());
    for (std::uint32_t i : live) {
        const PrefixNode &nd = nodes_[i];
        w.u64(nd.hash);
        w.u8(nd.parent != kNoNode ? 1 : 0);
        w.u64(nd.parent != kNoNode ? nodes_[nd.parent].hash : 0);
        w.u32(nd.block);
        w.u32(nd.depth);
        w.u64(nd.lastTouch);
        w.u64(nd.insertSeq);
        w.f64(nd.rebuildSeconds);
    }
}

void
KvCache::restore(ByteReader &r)
{
    // Decode into a copy of this cache (its geometry and prefix
    // config are what the checkpoint is checked against); commit once
    // every section decoded.
    KvCache kv = *this;
    WireReader io(r);
    flatCodec(io, kv);
    kv.nodes_.clear();
    kv.node_free_.clear();
    kv.by_hash_.clear();
    if (kv.prefix_.enabled) {
        constexpr std::size_t kNodeBytes = 8 + 1 + 8 + 4 + 4 + 8 + 8 + 8;
        std::size_t nNodes = 0;
        io.count(nNodes, kNodeBytes);
        kv.nodes_.reserve(nNodes);
        kv.by_hash_.reserve(nNodes);
        for (std::size_t i = 0; i < nNodes; ++i) {
            PrefixNode nd;
            nd.hash = r.u64();
            bool hasParent = false;
            io.flag(hasParent);
            const std::uint64_t parentHash = r.u64();
            nd.block = r.u32();
            nd.depth = r.u32();
            nd.lastTouch = r.u64();
            nd.insertSeq = r.u64();
            nd.rebuildSeconds = r.f64();
            nd.live = true;
            fatal_if(nd.block >= kv.blocks_.size(),
                     "KvCache restore: index page out of range");
            fatal_if(kv.blocks_[nd.block].refcount < 1 ||
                         kv.blocks_[nd.block].filled != block_tokens_,
                     "KvCache restore: index page ", nd.block,
                     " not a live full block");
            if (hasParent) {
                const auto p = kv.by_hash_.find(parentHash);
                fatal_if(p == kv.by_hash_.end(),
                         "KvCache restore: index node parent missing");
                fatal_if(nd.depth != kv.nodes_[p->second].depth + 1,
                         "KvCache restore: index node depth ", nd.depth,
                         " under a parent at depth ",
                         kv.nodes_[p->second].depth);
                nd.parent = p->second;
                ++kv.nodes_[p->second].children;
            } else {
                fatal_if(nd.depth != 0,
                         "KvCache restore: non-root node without parent");
            }
            const std::uint32_t nid =
                static_cast<std::uint32_t>(kv.nodes_.size());
            fatal_if(!kv.by_hash_.emplace(nd.hash, nid).second,
                     "KvCache restore: duplicate index hash");
            kv.nodes_.push_back(nd);
        }
    }
    // Every refcount is exactly its sequence + index references.
    std::vector<int> refs(kv.blocks_.size(), 0);
    for (const auto &[id, seq] : kv.seqs_)
        for (const std::uint32_t b : seq.blocks)
            ++refs[b];
    for (const PrefixNode &nd : kv.nodes_)
        ++refs[nd.block];
    for (std::size_t b = 0; b < refs.size(); ++b)
        fatal_if(refs[b] != kv.blocks_[b].refcount, "KvCache restore: "
                 "block ", b, " refcount ", kv.blocks_[b].refcount,
                 " != its ", refs[b], " reference(s)");
    *this = std::move(kv);
}

} // namespace engine
} // namespace edgereason
