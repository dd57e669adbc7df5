#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace vguard::obs {

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
Snapshot::upsertEntry(SnapshotEntry entry)
{
    const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                     entry.name, NameLess{});
    if (it != entries_.end() && it->name == entry.name)
        *it = std::move(entry);
    else
        entries_.insert(it, std::move(entry));
}

void
Snapshot::add(SnapshotEntry entry)
{
    const std::string &name = entry.name;
    if (name.empty())
        fatal("stats: empty name");
    bool prevDot = true; // catches a leading dot too
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.';
        if (!ok)
            fatal("stats: bad character '%c' in '%s'", c, name.c_str());
        if (c == '.' && prevDot)
            fatal("stats: empty path segment in '%s'", name.c_str());
        prevDot = c == '.';
    }
    if (prevDot)
        fatal("stats: trailing dot in '%s'", name.c_str());

    const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                     name, NameLess{});
    if (it != entries_.end() && it->name == name)
        fatal("stats: duplicate name '%s'", name.c_str());
    // A name may not be both a leaf and a group. '.' sorts below every
    // other legal character, so in a valid snapshot a leaf that is a
    // dotted prefix of this name sits just before it, and an entry in
    // a group under it just after.
    const auto groups = [](const std::string &leaf,
                           const std::string &longer) {
        return longer.size() > leaf.size() && longer[leaf.size()] == '.' &&
               longer.compare(0, leaf.size(), leaf) == 0;
    };
    if (it != entries_.begin() && groups(std::prev(it)->name, name))
        fatal("stats: '%s' collides with group of '%s'",
              std::prev(it)->name.c_str(), name.c_str());
    if (it != entries_.end() && groups(name, it->name))
        fatal("stats: '%s' collides with group of '%s'", name.c_str(),
              it->name.c_str());
    entries_.insert(it, std::move(entry));
}

void
Snapshot::addCounter(std::string name, std::string desc, uint64_t value,
                     MergeRule rule)
{
    SnapshotEntry e;
    e.name = std::move(name);
    e.desc = std::move(desc);
    e.kind = SnapshotEntry::Kind::Counter;
    e.rule = rule;
    e.u = value;
    add(std::move(e));
}

void
Snapshot::addGauge(std::string name, std::string desc, double value,
                   MergeRule rule)
{
    SnapshotEntry e;
    e.name = std::move(name);
    e.desc = std::move(desc);
    e.kind = SnapshotEntry::Kind::Gauge;
    e.rule = rule;
    e.d = value;
    add(std::move(e));
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
