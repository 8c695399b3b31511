#include "text/ngram.h"

#include <algorithm>

#include "common/hash.h"
#include "text/utf8.h"

namespace dj::text {

std::vector<std::string> WordNgrams(const std::vector<std::string>& words,
                                    size_t n) {
  std::vector<std::string> out;
  if (n == 0 || words.size() < n) return out;
  out.reserve(words.size() - n + 1);
  for (size_t i = 0; i + n <= words.size(); ++i) {
    std::string gram = words[i];
    for (size_t j = 1; j < n; ++j) {
      gram.push_back('\x1f');
      gram += words[i + j];
    }
    out.push_back(std::move(gram));
  }
  return out;
}

std::vector<std::string> CharNgrams(std::string_view s, size_t n) {
  std::vector<std::string> out;
  if (n == 0) return out;
  // Collect codepoint byte offsets.
  std::vector<size_t> offsets;
  size_t pos = 0;
  uint32_t cp;
  while (pos < s.size()) {
    offsets.push_back(pos);
    DecodeUtf8(s, &pos, &cp);
  }
  offsets.push_back(s.size());
  if (offsets.size() <= n) return out;
  for (size_t i = 0; i + n < offsets.size(); ++i) {
    out.emplace_back(s.substr(offsets[i], offsets[i + n] - offsets[i]));
  }
  return out;
}

std::vector<uint64_t> HashedWordNgrams(const std::vector<std::string>& words,
                                       size_t n) {
  std::vector<uint64_t> out;
  if (n == 0 || words.size() < n) return out;
  // Precompute word hashes, then combine windows.
  std::vector<uint64_t> wh(words.size());
  for (size_t i = 0; i < words.size(); ++i) wh[i] = Fnv1a64(words[i]);
  out.reserve(words.size() - n + 1);
  for (size_t i = 0; i + n <= words.size(); ++i) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t j = 0; j < n; ++j) h = HashCombine(h, wh[i + j]);
    out.push_back(h);
  }
  return out;
}

std::vector<uint64_t> HashedCharNgrams(std::string_view s, size_t n) {
  std::vector<uint64_t> out;
  if (n == 0 || s.size() < n) return out;
  out.reserve(s.size() - n + 1);
  for (size_t i = 0; i + n <= s.size(); ++i) {
    out.push_back(Fnv1a64(s.substr(i, n)));
  }
  return out;
}

double DuplicateNgramRatio(const std::vector<uint64_t>& gram_hashes) {
  if (gram_hashes.empty()) return 0.0;
  // Distinct count through an open-addressing set (linear probing, load at
  // most 1/2) in per-thread scratch that is reused across rows. Slot value 0
  // marks an empty slot, so the gram value 0 is counted on the side.
  thread_local std::vector<uint64_t> slots;
  int bits = 1;
  while ((size_t{1} << bits) < 2 * gram_hashes.size()) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  slots.assign(mask + 1, 0);
  size_t unique = 0;
  bool seen_zero = false;
  for (uint64_t h : gram_hashes) {
    if (h == 0) {
      unique += seen_zero ? 0 : 1;
      seen_zero = true;
      continue;
    }
    // Fibonacci hashing: the top bits of h * 2^64/phi pick the home slot.
    size_t i = static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
    while (slots[i] != 0 && slots[i] != h) i = (i + 1) & mask;
    if (slots[i] == 0) {
      slots[i] = h;
      ++unique;
    }
  }
  return 1.0 - static_cast<double>(unique) /
                   static_cast<double>(gram_hashes.size());
}

double JaccardSimilarity(std::vector<uint64_t> a, std::vector<uint64_t> b) {
  if (a.empty() && b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace dj::text
