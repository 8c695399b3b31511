#include "text/lang_id.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/string_util.h"
#include "text/ngram.h"
#include "text/utf8.h"

namespace dj::text {
namespace {

// Seed text per language: a few dozen high-frequency sentences capturing the
// character statistics of each language. Profiles are trigram frequencies
// over the lowercased seed.
constexpr std::string_view kSeedEn =
    "the quick brown fox jumps over the lazy dog. this is a sentence about "
    "the world and the people who live in it. we are going to describe how "
    "things work and why they matter. language models are trained on large "
    "amounts of text data collected from the web. the weather today is nice "
    "and the children are playing in the park. she said that he would come "
    "to the meeting tomorrow with the report. there is no doubt that the "
    "results of the experiment were very interesting for everyone involved. "
    "please read the following instructions carefully before you begin. it "
    "was the best of times, it was the worst of times. what do you think "
    "about the new system that they have built for processing information?";

constexpr std::string_view kSeedDe =
    "der schnelle braune fuchs springt ueber den faulen hund. das ist ein "
    "satz ueber die welt und die menschen die darin leben. wir werden "
    "beschreiben wie die dinge funktionieren und warum sie wichtig sind. "
    "das wetter ist heute schoen und die kinder spielen im park. sie sagte "
    "dass er morgen mit dem bericht zur besprechung kommen wuerde. es gibt "
    "keinen zweifel dass die ergebnisse des experiments sehr interessant "
    "waren. bitte lesen sie die folgenden anweisungen sorgfaeltig durch "
    "bevor sie beginnen. was denken sie ueber das neue system das sie "
    "gebaut haben?";

constexpr std::string_view kSeedFr =
    "le rapide renard brun saute par dessus le chien paresseux. ceci est une "
    "phrase sur le monde et les gens qui y vivent. nous allons decrire "
    "comment les choses fonctionnent et pourquoi elles sont importantes. le "
    "temps est beau aujourd'hui et les enfants jouent dans le parc. elle a "
    "dit qu'il viendrait demain a la reunion avec le rapport. il n'y a "
    "aucun doute que les resultats de l'experience etaient tres "
    "interessants. veuillez lire attentivement les instructions suivantes "
    "avant de commencer. que pensez vous du nouveau systeme qu'ils ont "
    "construit?";

constexpr std::string_view kSeedEs =
    "el rapido zorro marron salta sobre el perro perezoso. esta es una "
    "frase sobre el mundo y la gente que vive en el. vamos a describir como "
    "funcionan las cosas y por que son importantes. el tiempo es bueno hoy "
    "y los ninos juegan en el parque. ella dijo que el vendria manana a la "
    "reunion con el informe. no hay duda de que los resultados del "
    "experimento fueron muy interesantes para todos. por favor lea "
    "atentamente las siguientes instrucciones antes de comenzar. que piensa "
    "usted del nuevo sistema que han construido?";

// Chinese seed: common sentences (UTF-8 literals).
constexpr std::string_view kSeedZh =
    "\xe4\xbb\x8a\xe5\xa4\xa9\xe5\xa4\xa9\xe6\xb0\x94\xe5\xbe\x88\xe5\xa5\xbd"
    "\xe3\x80\x82\xe6\x88\x91\xe4\xbb\xac\xe5\x9c\xa8\xe5\x85\xac\xe5\x9b\xad"
    "\xe9\x87\x8c\xe6\x95\xa3\xe6\xad\xa5\xe3\x80\x82\xe8\xbf\x99\xe6\x98\xaf"
    "\xe4\xb8\x80\xe4\xb8\xaa\xe5\x85\xb3\xe4\xba\x8e\xe4\xb8\x96\xe7\x95\x8c"
    "\xe7\x9a\x84\xe5\x8f\xa5\xe5\xad\x90\xe3\x80\x82\xe5\xa4\xa7\xe5\x9e\x8b"
    "\xe8\xaf\xad\xe8\xa8\x80\xe6\xa8\xa1\xe5\x9e\x8b\xe9\x9c\x80\xe8\xa6\x81"
    "\xe5\xa4\xa7\xe9\x87\x8f\xe7\x9a\x84\xe6\x96\x87\xe6\x9c\xac\xe6\x95\xb0"
    "\xe6\x8d\xae\xe3\x80\x82\xe5\xad\xa9\xe5\xad\x90\xe4\xbb\xac\xe5\x9c\xa8"
    "\xe5\xad\xa6\xe6\xa0\xa1\xe5\xad\xa6\xe4\xb9\xa0\xe6\x95\xb0\xe5\xad\xa6"
    "\xe5\x92\x8c\xe8\xaf\xad\xe6\x96\x87\xe3\x80\x82\xe8\xaf\xb7\xe4\xbb\x94"
    "\xe7\xbb\x86\xe9\x98\x85\xe8\xaf\xbb\xe4\xb8\x8b\xe9\x9d\xa2\xe7\x9a\x84"
    "\xe8\xaf\xb4\xe6\x98\x8e\xe3\x80\x82\xe5\xae\x9e\xe9\xaa\x8c\xe7\xbb\x93"
    "\xe6\x9e\x9c\xe9\x9d\x9e\xe5\xb8\xb8\xe6\x9c\x89\xe8\xb6\xa3\xe3\x80\x82";

double CjkRatio(std::string_view s) {
  size_t pos = 0, total = 0, cjk = 0;
  uint32_t cp;
  while (pos < s.size()) {
    DecodeUtf8(s, &pos, &cp);
    if (IsWhitespaceCp(cp)) continue;
    ++total;
    if (IsCjk(cp)) ++cjk;
  }
  return total == 0 ? 0.0 : static_cast<double>(cjk) /
                                static_cast<double>(total);
}

}  // namespace

LanguageIdentifier::LanguageIdentifier() = default;

size_t LanguageIdentifier::FindSlot(uint64_t gram) const {
  // Fibonacci hashing: the top slot_bits_ bits of gram * 2^64/phi.
  size_t i = static_cast<size_t>((gram * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - slot_bits_));
  while (slots_[i] != 0 && grams_[slots_[i]] != gram) {
    i = (i + 1) & (slots_.size() - 1);
  }
  return i;
}

uint32_t LanguageIdentifier::FindOrAddRow(uint64_t gram) {
  uint32_t& slot = slots_[FindSlot(gram)];
  if (slot != 0) return slot;
  const size_t width = profiles_.size();
  slot = static_cast<uint32_t>(grams_.size());
  grams_.push_back(gram);
  // A new gram starts as a copy of the fallback row: no profile has it yet.
  rows_.resize(rows_.size() + width);
  std::copy_n(rows_.begin(), width, rows_.end() - width);
  present_.resize(rows_.size(), false);
  return slot;
}

void LanguageIdentifier::AddProfile(const std::string& lang,
                                    std::string_view seed_text) {
  std::vector<uint64_t> grams = HashedCharNgrams(AsciiToLower(seed_text), 3);
  size_t k = 0;
  while (k < profiles_.size() && profiles_[k].lang != lang) ++k;
  const size_t old_width = profiles_.size();
  const size_t width = std::max(old_width, k + 1);
  if (grams_.empty()) grams_.push_back(0);  // row 0, the fallback row
  const size_t rows = grams_.size();
  // Room for every gram of the seed to be new, so the table is allocated
  // once per profile instead of regrown gram by gram: the build runs in
  // every process's set-up, and reserving touches no pages.
  const size_t max_rows = rows + grams.size();
  if (width != old_width) {
    // Widen every row by one column for the new profile (filled below).
    std::vector<double> wide;
    wide.reserve(max_rows * width);
    wide.resize(rows * width);
    std::vector<bool> wide_present(rows * width, false);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < old_width; ++c) {
        wide[r * width + c] = rows_[r * old_width + c];
        wide_present[r * width + c] = present_[r * old_width + c];
      }
    }
    rows_ = std::move(wide);
    present_ = std::move(wide_present);
    profiles_.push_back(Profile{lang});
  }
  rows_.reserve(max_rows * width);
  present_.reserve(max_rows * width);
  grams_.reserve(max_rows);
  if (2 * max_rows > slots_.size()) {
    // Rehash so the table stays at most half full.
    slot_bits_ = 6;
    while ((size_t{1} << slot_bits_) < 2 * max_rows) ++slot_bits_;
    slots_.assign(size_t{1} << slot_bits_, 0);
    for (size_t r = 1; r < rows; ++r) {
      slots_[FindSlot(grams_[r])] = static_cast<uint32_t>(r);
    }
  }

  // Trigram counts per row; a gram no profile had gets its row here.
  std::vector<uint32_t> counts(max_rows, 0);
  size_t distinct = 0;
  for (uint64_t gram : grams) {
    distinct += counts[FindOrAddRow(gram)]++ == 0 ? 1 : 0;
  }
  double total = static_cast<double>(grams.size());
  // Laplace-smoothed log probabilities; unseen grams get a fallback below
  // the rarest seen gram.
  double denom = total + static_cast<double>(distinct) + 1.0;
  double fallback = std::log(1.0 / denom) - 1.0;
  // Re-adding a language extends it: grams it had keep their log probs
  // unless the new seed has them too; every other cell, the fallback row
  // included, takes the new fallback.
  for (size_t r = 0; r < grams_.size(); ++r) {
    size_t cell = r * width + k;
    if (counts[r] > 0) {
      rows_[cell] = std::log((counts[r] + 1.0) / denom);
      present_[cell] = true;
    } else if (!present_[cell]) {
      rows_[cell] = fallback;
    }
  }
  profiles_[k].cjk_expectation = CjkRatio(seed_text);
}

const LanguageIdentifier& LanguageIdentifier::Default() {
  static const LanguageIdentifier* instance = [] {
    auto* id = new LanguageIdentifier();
    id->AddProfile("en", kSeedEn);
    id->AddProfile("de", kSeedDe);
    id->AddProfile("fr", kSeedFr);
    id->AddProfile("es", kSeedEs);
    id->AddProfile("zh", kSeedZh);
    return id;
  }();
  return *instance;
}

std::vector<std::pair<std::string, double>> LanguageIdentifier::ScoresFor(
    std::string_view s) const {
  std::vector<std::pair<std::string, double>> scores;
  if (profiles_.empty()) return scores;
  const size_t width = profiles_.size();
  std::string lower = AsciiToLower(s);
  // One probe per trigram feeds every language's sum; each sum adds its log
  // probs in trigram order.
  std::vector<double> sums(width, 0.0);
  size_t grams = 0;
  for (; grams + 3 <= lower.size(); ++grams) {
    uint64_t gram = Fnv1a64(std::string_view(lower).substr(grams, 3));
    const double* cells = rows_.data() + slots_[FindSlot(gram)] * width;
    for (size_t k = 0; k < width; ++k) sums[k] += cells[k];
  }
  double cjk = CjkRatio(s);
  for (size_t k = 0; k < width; ++k) {
    // No trigram at all scores the fallback (row 0).
    double logp = grams > 0 ? sums[k] / static_cast<double>(grams) : rows_[k];
    // CJK-ratio prior: quadratic penalty for mismatch between the observed
    // CJK density and the language's expectation. Weighted strongly enough
    // to dominate on clearly CJK or clearly Latin text.
    double mismatch = cjk - profiles_[k].cjk_expectation;
    logp -= 6.0 * mismatch * mismatch;
    scores.emplace_back(profiles_[k].lang, logp);
  }
  return scores;
}

LangScore LanguageIdentifier::Identify(std::string_view s) const {
  auto scores = ScoresFor(s);
  if (scores.empty()) return {"und", 0.0};
  double max_logp = scores[0].second;
  for (const auto& [lang, logp] : scores) max_logp = std::max(max_logp, logp);
  double z = 0;
  for (auto& [lang, logp] : scores) {
    logp = std::exp((logp - max_logp) * 3.0);  // temperature sharpening
    z += logp;
  }
  auto best = std::max_element(
      scores.begin(), scores.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return {best->first, best->second / z};
}

double LanguageIdentifier::Score(std::string_view s,
                                 std::string_view lang) const {
  auto scores = ScoresFor(s);
  if (scores.empty()) return 0.0;
  double max_logp = scores[0].second;
  for (const auto& [l, logp] : scores) max_logp = std::max(max_logp, logp);
  double z = 0;
  double target = -1;
  for (const auto& [l, logp] : scores) {
    double e = std::exp((logp - max_logp) * 3.0);
    z += e;
    if (l == lang) target = e;
  }
  if (target < 0) return 0.0;
  return target / z;
}

std::vector<std::string> LanguageIdentifier::Languages() const {
  std::vector<std::string> out;
  for (const Profile& profile : profiles_) out.push_back(profile.lang);
  return out;
}

}  // namespace dj::text
