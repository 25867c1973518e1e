#include "util/fault.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace advocat::util::fault {

namespace {

constexpr unsigned kNumSites = static_cast<unsigned>(Site::kCount);

const char* const kSiteNames[kNumSites] = {
    "arena_alloc",
    "bigint_alloc",
    "theory_timeout",
};

struct SiteState {
  std::atomic<std::uint64_t> count{0};
  // Written only by configure() (which must not race active solves),
  // read by fire() under the g_enabled acquire.
  std::vector<std::uint64_t> oneshots;  // sorted arrival numbers
  std::uint64_t repeat_from = 0;        // fire from this arrival on (0 = off)
};

SiteState g_sites[kNumSites];
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_deferred{false};
std::once_flag g_env_once;

int site_index(const std::string& name) {
  for (unsigned i = 0; i < kNumSites; ++i) {
    if (name == kSiteNames[i]) return static_cast<int>(i);
  }
  return -1;
}

// Parses and installs `spec`; returns false when any token was skipped.
bool install(const char* spec) {
  bool any = false;
  bool clean = true;
  for (SiteState& s : g_sites) {
    s.count.store(0, std::memory_order_relaxed);
    s.oneshots.clear();
    s.repeat_from = 0;
  }
  g_deferred.store(false, std::memory_order_relaxed);
  const std::string text = spec != nullptr ? spec : "";
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    std::string token = text.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace.
    const std::size_t b = token.find_first_not_of(" \t");
    const std::size_t e = token.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    token = token.substr(b, e - b + 1);

    const std::size_t at = token.find('@');
    const int site = at == std::string::npos
                         ? -1
                         : site_index(token.substr(0, at));
    bool ok = site >= 0 && at + 1 < token.size();
    std::uint64_t n = 0;
    bool repeat = false;
    if (ok) {
      std::string num = token.substr(at + 1);
      if (!num.empty() && num.back() == '+') {
        repeat = true;
        num.pop_back();
      }
      ok = !num.empty() &&
           num.find_first_not_of("0123456789") == std::string::npos;
      if (ok) {
        errno = 0;
        char* parse_end = nullptr;
        n = std::strtoull(num.c_str(), &parse_end, 10);
        ok = errno == 0 && parse_end != nullptr && *parse_end == '\0' && n > 0;
      }
    }
    if (!ok) {
      std::fprintf(stderr,
                   "advocat: ADVOCAT_FAULTS: ignoring bad token \"%s\" "
                   "(want site@count or site@count+)\n",
                   token.c_str());
      clean = false;
      continue;
    }
    SiteState& s = g_sites[site];
    if (repeat) {
      s.repeat_from = s.repeat_from == 0 ? n : std::min(s.repeat_from, n);
    } else {
      s.oneshots.push_back(n);
    }
    any = true;
  }
  for (SiteState& s : g_sites) {
    std::sort(s.oneshots.begin(), s.oneshots.end());
    s.oneshots.erase(std::unique(s.oneshots.begin(), s.oneshots.end()),
                     s.oneshots.end());
  }
  // Release: schedules above happen-before any fire() that sees `true`.
  g_enabled.store(any, std::memory_order_release);
  return clean;
}

void init_from_env() { (void)install(std::getenv("ADVOCAT_FAULTS")); }

}  // namespace

bool enabled() {
  std::call_once(g_env_once, init_from_env);
  return g_enabled.load(std::memory_order_acquire);
}

bool fire(Site site) {
  if (!enabled()) return false;
  SiteState& s = g_sites[static_cast<unsigned>(site)];
  const std::uint64_t n = s.count.fetch_add(1, std::memory_order_relaxed) + 1;
  if (s.repeat_from != 0 && n >= s.repeat_from) return true;
  return std::binary_search(s.oneshots.begin(), s.oneshots.end(), n);
}

void defer(Site site) {
  if (fire(site)) g_deferred.store(true, std::memory_order_relaxed);
}

bool take_deferred() {
  if (!g_deferred.load(std::memory_order_relaxed)) return false;
  return g_deferred.exchange(false, std::memory_order_relaxed);
}

bool configure(const char* spec) {
  std::call_once(g_env_once, [] {});  // suppress a later env re-read
  return install(spec);
}

std::uint64_t arrivals(Site site) {
  return g_sites[static_cast<unsigned>(site)].count.load(
      std::memory_order_relaxed);
}

const char* name(Site site) { return kSiteNames[static_cast<unsigned>(site)]; }

}  // namespace advocat::util::fault
