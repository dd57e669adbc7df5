#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace vguard::obs {

// ------------------------------------------------------------- Registry

Registry::Registry() = default;
Registry::~Registry() = default;

struct Registry::Entry
{
    std::string desc;
    MergeRule rule = MergeRule::Sum;
    SnapshotEntry::Kind kind = SnapshotEntry::Kind::Counter;

    // Exactly one of these is set, per kind.
    std::function<uint64_t()> counterFn;
    std::function<double()> gaugeFn;
};

void
Registry::checkName(const std::string &name) const
{
    // Must be called with m_ held.
    if (name.empty())
        fatal("stats registry: empty name");
    bool prevDot = true; // catches a leading dot too
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.';
        if (!ok)
            fatal("stats registry: bad character '%c' in '%s'", c,
                  name.c_str());
        if (c == '.' && prevDot)
            fatal("stats registry: empty path segment in '%s'",
                  name.c_str());
        prevDot = c == '.';
    }
    if (prevDot)
        fatal("stats registry: trailing dot in '%s'", name.c_str());

    if (entries_.count(name))
        fatal("stats registry: duplicate name '%s'", name.c_str());

    // A name may not be both a leaf and a group: reject registering
    // "a.b" when "a.b.c" exists and vice versa.
    for (const auto &[existing, entry] : entries_) {
        (void)entry;
        const std::string &shorter =
            existing.size() < name.size() ? existing : name;
        const std::string &longer =
            existing.size() < name.size() ? name : existing;
        if (longer.size() > shorter.size() &&
            longer.compare(0, shorter.size(), shorter) == 0 &&
            longer[shorter.size()] == '.')
            fatal("stats registry: '%s' collides with group of '%s'",
                  shorter.c_str(), longer.c_str());
    }
}

Registry::Entry &
Registry::add(std::string name, std::string desc, MergeRule rule)
{
    // Must be called with m_ held.
    checkName(name);
    auto entry = std::make_unique<Entry>();
    entry->desc = std::move(desc);
    entry->rule = rule;
    Entry &ref = *entry;
    entries_.emplace(std::move(name), std::move(entry));
    return ref;
}

void
Registry::derivedCounter(std::string name, std::string desc,
                         std::function<uint64_t()> fn, MergeRule rule)
{
    std::lock_guard<std::mutex> lock(m_);
    Entry &e = add(std::move(name), std::move(desc), rule);
    e.kind = SnapshotEntry::Kind::Counter;
    e.counterFn = std::move(fn);
}

void
Registry::derivedGauge(std::string name, std::string desc,
                       std::function<double()> fn, MergeRule rule)
{
    std::lock_guard<std::mutex> lock(m_);
    Entry &e = add(std::move(name), std::move(desc), rule);
    e.kind = SnapshotEntry::Kind::Gauge;
    e.gaugeFn = std::move(fn);
}

size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return entries_.size();
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(m_);
    Snapshot s;
    s.entries_.reserve(entries_.size());
    // std::map iterates in sorted key order, so entries_ lands sorted.
    for (const auto &[name, e] : entries_) {
        SnapshotEntry out;
        out.name = name;
        out.desc = e->desc;
        out.kind = e->kind;
        out.rule = e->rule;
        switch (e->kind) {
          case SnapshotEntry::Kind::Counter:
            out.u = e->counterFn();
            break;
          case SnapshotEntry::Kind::Gauge:
            out.d = e->gaugeFn();
            break;
        }
        s.entries_.push_back(std::move(out));
    }
    return s;
}

// ------------------------------------------------------------- Snapshot

namespace {

struct NameLess
{
    bool
    operator()(const SnapshotEntry &e, std::string_view name) const
    {
        return e.name < name;
    }
};

/** NaN-aware gauge combination: a real sample always beats NaN. */
double
combineGauge(double mine, double theirs, MergeRule rule)
{
    if (std::isnan(mine))
        return theirs;
    if (std::isnan(theirs))
        return mine;
    switch (rule) {
      case MergeRule::Sum:  return mine + theirs;
      case MergeRule::Min:  return std::min(mine, theirs);
      case MergeRule::Max:  return std::max(mine, theirs);
      case MergeRule::Last: return theirs;
    }
    return theirs;
}

uint64_t
combineCounter(uint64_t mine, uint64_t theirs, MergeRule rule)
{
    switch (rule) {
      case MergeRule::Sum:  return mine + theirs;
      case MergeRule::Min:  return std::min(mine, theirs);
      case MergeRule::Max:  return std::max(mine, theirs);
      case MergeRule::Last: return theirs;
    }
    return theirs;
}

std::vector<std::string_view>
splitPath(std::string_view name)
{
    std::vector<std::string_view> parts;
    size_t start = 0;
    for (size_t i = 0; i <= name.size(); ++i) {
        if (i == name.size() || name[i] == '.') {
            parts.push_back(name.substr(start, i - start));
            start = i + 1;
        }
    }
    return parts;
}

} // namespace

const SnapshotEntry *
Snapshot::find(std::string_view name) const
{
    const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                     name, NameLess{});
    if (it == entries_.end() || it->name != name)
        return nullptr;
    return &*it;
}

uint64_t
Snapshot::counterValue(std::string_view name, uint64_t fallback) const
{
    const SnapshotEntry *e = find(name);
    if (!e || e->kind != SnapshotEntry::Kind::Counter)
        return fallback;
    return e->u;
}

double
Snapshot::gaugeValue(std::string_view name, double fallback) const
{
    const SnapshotEntry *e = find(name);
    if (!e || e->kind != SnapshotEntry::Kind::Gauge)
        return fallback;
    return e->d;
}

void
Snapshot::upsert(SnapshotEntry entry)
{
    const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                     entry.name, NameLess{});
    if (it != entries_.end() && it->name == entry.name)
        *it = std::move(entry);
    else
        entries_.insert(it, std::move(entry));
}

void
Snapshot::setCounter(std::string name, uint64_t value, MergeRule rule,
                     std::string desc)
{
    SnapshotEntry e;
    e.name = std::move(name);
    e.desc = std::move(desc);
    e.kind = SnapshotEntry::Kind::Counter;
    e.rule = rule;
    e.u = value;
    upsert(std::move(e));
}

void
Snapshot::setGauge(std::string name, double value, MergeRule rule,
                   std::string desc)
{
    SnapshotEntry e;
    e.name = std::move(name);
    e.desc = std::move(desc);
    e.kind = SnapshotEntry::Kind::Gauge;
    e.rule = rule;
    e.d = value;
    upsert(std::move(e));
}

void
Snapshot::merge(const Snapshot &other)
{
    for (const SnapshotEntry &theirs : other.entries_) {
        const auto it = std::lower_bound(entries_.begin(),
                                         entries_.end(), theirs.name,
                                         NameLess{});
        if (it == entries_.end() || it->name != theirs.name) {
            entries_.insert(it, theirs);
            continue;
        }
        SnapshotEntry &mine = *it;
        if (mine.kind != theirs.kind)
            fatal("Snapshot::merge: kind mismatch on '%s'",
                  mine.name.c_str());
        switch (mine.kind) {
          case SnapshotEntry::Kind::Counter:
            mine.u = combineCounter(mine.u, theirs.u, mine.rule);
            break;
          case SnapshotEntry::Kind::Gauge:
            mine.d = combineGauge(mine.d, theirs.d, mine.rule);
            break;
        }
    }
}

Snapshot
Snapshot::diff(const Snapshot &earlier) const
{
    Snapshot out = *this;
    for (SnapshotEntry &e : out.entries_) {
        if (e.kind != SnapshotEntry::Kind::Counter)
            continue;
        const SnapshotEntry *base = earlier.find(e.name);
        if (base && base->kind == SnapshotEntry::Kind::Counter)
            e.u = e.u >= base->u ? e.u - base->u : 0;
    }
    return out;
}

std::string
Snapshot::json() const
{
    JsonWriter w;
    w.beginObject();
    std::vector<std::string_view> open;
    for (const SnapshotEntry &e : entries_) {
        std::vector<std::string_view> parts = splitPath(e.name);
        // parts.back() is the leaf key; the rest are groups.
        size_t common = 0;
        while (common < open.size() && common + 1 < parts.size() &&
               open[common] == parts[common])
            ++common;
        while (open.size() > common) {
            w.endObject();
            open.pop_back();
        }
        for (size_t i = common; i + 1 < parts.size(); ++i) {
            w.key(parts[i]).beginObject();
            open.push_back(parts[i]);
        }
        w.key(parts.back());
        switch (e.kind) {
          case SnapshotEntry::Kind::Counter: w.value(e.u); break;
          case SnapshotEntry::Kind::Gauge:   w.value(e.d); break;
        }
    }
    while (!open.empty()) {
        w.endObject();
        open.pop_back();
    }
    w.endObject();
    return w.take();
}

} // namespace vguard::obs
