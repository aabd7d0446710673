#include "serve/lru.hh"

namespace libra {

bool
LruCache::get(const std::string& key, LibraReport* out)
{
    if (capacity_ == 0)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++hits_;
    *out = it->second->second;
    return true;
}

void
LruCache::put(const std::string& key, const LibraReport& report)
{
    if (capacity_ == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // Refresh in place; the report for a canonical key is unique
        // (evaluation is deterministic), but overwriting keeps the
        // cache correct even if a future caller violates that.
        order_.splice(order_.begin(), order_, it->second);
        it->second->second = report;
        return;
    }
    order_.emplace_front(key, report);
    index_.emplace(key, order_.begin());
    if (order_.size() > capacity_) {
        index_.erase(order_.back().first);
        order_.pop_back();
        ++evictions_;
    }
}

void
LruCache::erase(const std::string& key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end())
        return;
    order_.erase(it->second);
    index_.erase(it);
}

LruCache::Stats
LruCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = order_.size();
    s.capacity = capacity_;
    return s;
}

} // namespace libra
