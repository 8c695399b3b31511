#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "text/lang_id.h"
#include "text/lexicons.h"
#include "text/ngram.h"
#include "text/ngram_lm.h"
#include "text/normalize.h"
#include "text/sentence.h"
#include "text/tokenizer.h"
#include "text/utf8.h"

namespace dj::text {
namespace {

// --------------------------------------------------------------- utf8 ----

TEST(Utf8Test, DecodeAscii) {
  size_t pos = 0;
  uint32_t cp;
  EXPECT_TRUE(DecodeUtf8("A", &pos, &cp));
  EXPECT_EQ(cp, 'A');
  EXPECT_EQ(pos, 1u);
}

TEST(Utf8Test, DecodeMultibyte) {
  std::string s = "\xC3\xA9\xE4\xB8\xAD\xF0\x9F\x98\x80";  // é 中 😀
  size_t pos = 0;
  uint32_t cp;
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0xE9u);
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0x4E2Du);
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0x1F600u);
  EXPECT_EQ(pos, s.size());
}

TEST(Utf8Test, RejectsOverlongAndSurrogates) {
  // Overlong 2-byte encoding of '/'.
  std::string overlong = "\xC0\xAF";
  EXPECT_FALSE(IsValidUtf8(overlong));
  // CESU-8 surrogate.
  std::string surrogate = "\xED\xA0\x80";
  EXPECT_FALSE(IsValidUtf8(surrogate));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("\xE4\xB8\xAD"));
}

TEST(Utf8Test, MalformedAdvancesOneByte) {
  std::string bad = "\xFFok";
  size_t pos = 0;
  uint32_t cp;
  EXPECT_FALSE(DecodeUtf8(bad, &pos, &cp));
  EXPECT_EQ(cp, 0xFFFDu);
  EXPECT_EQ(pos, 1u);
}

TEST(Utf8Test, EncodeDecodeRoundTrip) {
  for (uint32_t cp : {0x41u, 0xE9u, 0x4E2Du, 0x1F600u}) {
    std::string s;
    EncodeUtf8(cp, &s);
    size_t pos = 0;
    uint32_t back;
    EXPECT_TRUE(DecodeUtf8(s, &pos, &back));
    EXPECT_EQ(back, cp);
    EXPECT_EQ(pos, s.size());
  }
}

TEST(Utf8Test, CodepointCount) {
  EXPECT_EQ(CodepointCount("abc"), 3u);
  EXPECT_EQ(CodepointCount("\xE4\xB8\xAD\xE6\x96\x87"), 2u);
  EXPECT_EQ(CodepointCount(""), 0u);
}

TEST(Utf8Test, ClassPredicates) {
  EXPECT_TRUE(IsCjk(0x4E2D));
  EXPECT_FALSE(IsCjk('a'));
  EXPECT_TRUE(IsAsciiAlnum('z'));
  EXPECT_TRUE(IsAsciiDigit('7'));
  EXPECT_TRUE(IsWhitespaceCp(0x00A0));
  EXPECT_TRUE(IsPunctuationCp('!'));
  EXPECT_TRUE(IsPunctuationCp(0x3002));  // 。
  EXPECT_TRUE(IsEmojiLike(0x1F600));
}

// ---------------------------------------------------------- tokenizer ----

TEST(TokenizerTest, BasicWords) {
  EXPECT_EQ(TokenizeWords("Hello, world!"),
            (std::vector<std::string>{"Hello", "world"}));
}

TEST(TokenizerTest, ApostrophesStayInWords) {
  EXPECT_EQ(TokenizeWords("don't stop"),
            (std::vector<std::string>{"don't", "stop"}));
}

TEST(TokenizerTest, CjkCharactersAreSingleTokens) {
  std::vector<std::string> tokens =
      TokenizeWords("ab\xE4\xB8\xAD\xE6\x96\x87" "cd");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "ab");
  EXPECT_EQ(tokens[1], "\xE4\xB8\xAD");
  EXPECT_EQ(tokens[3], "cd");
}

TEST(TokenizerTest, LowercaseVariant) {
  EXPECT_EQ(TokenizeWordsLower("MiXeD Case"),
            (std::vector<std::string>{"mixed", "case"}));
}

TEST(TokenizerTest, WhitespaceTokenizerKeepsPunctuation) {
  EXPECT_EQ(TokenizeWhitespace("a, b.  c"),
            (std::vector<std::string>{"a,", "b.", "c"}));
}

TEST(TokenizerTest, CountWordsMatchesTokenize) {
  std::string s = "one two, three. four";
  EXPECT_EQ(CountWords(s), TokenizeWords(s).size());
}

TEST(TokenizerTest, ApproxLlmTokenCountGrowsWithLongWords) {
  size_t short_words = ApproxLlmTokenCount("cat dog bird");
  size_t long_word = ApproxLlmTokenCount("antidisestablishmentarianism");
  EXPECT_EQ(short_words, 3u);
  EXPECT_GT(long_word, 1u);  // split into subword pieces
}

// -------------------------------------------------------------- ngram ----

TEST(NgramTest, WordNgrams) {
  std::vector<std::string> words{"a", "b", "c"};
  std::vector<std::string> grams = WordNgrams(words, 2);
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "a\x1f""b");
  EXPECT_TRUE(WordNgrams(words, 4).empty());
  EXPECT_TRUE(WordNgrams(words, 0).empty());
}

TEST(NgramTest, CharNgramsUtf8Aware) {
  std::vector<std::string> grams = CharNgrams("\xE4\xB8\xAD\xE6\x96\x87x", 2);
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "\xE4\xB8\xAD\xE6\x96\x87");
}

TEST(NgramTest, HashedNgramsConsistentWithStrings) {
  std::vector<std::string> a{"x", "y", "z", "x", "y"};
  EXPECT_EQ(HashedWordNgrams(a, 2).size(), 4u);
  // Same bigram "x y" appears twice -> equal hashes at 0 and 3.
  auto hashes = HashedWordNgrams(a, 2);
  EXPECT_EQ(hashes[0], hashes[3]);
  EXPECT_NE(hashes[0], hashes[1]);
}

TEST(NgramTest, DuplicateRatio) {
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({}), 0.0);
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({1, 1, 1, 1}), 0.75);
}

TEST(NgramTest, JaccardSimilarity) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
}

// ----------------------------------------------------------- sentence ----

TEST(SentenceTest, BasicSplit) {
  auto s = SplitSentences("First one. Second one! Third one?");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "First one.");
  EXPECT_EQ(s[2], "Third one?");
}

TEST(SentenceTest, AbbreviationsDoNotSplit) {
  auto s = SplitSentences("Dr. Smith met Prof. Jones. They talked.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "Dr. Smith met Prof. Jones.");
}

TEST(SentenceTest, DecimalsDoNotSplit) {
  auto s = SplitSentences("Pi is 3.14 roughly. Euler is 2.72.");
  ASSERT_EQ(s.size(), 2u);
}

TEST(SentenceTest, CjkPunctuationSplits) {
  auto s = SplitSentences(
      "\xe4\xbb\x8a\xe5\xa4\xa9\xe5\xa5\xbd\xe3\x80\x82"
      "\xe6\x98\x8e\xe5\xa4\xa9\xe8\xa7\x81\xe3\x80\x82");
  EXPECT_EQ(s.size(), 2u);
}

TEST(SentenceTest, ParagraphBreakSplits) {
  auto s = SplitSentences("no punctuation here\n\nnext paragraph");
  EXPECT_EQ(s.size(), 2u);
}

TEST(SentenceTest, SplitParagraphs) {
  auto p = SplitParagraphs("one\ntwo\n\nthree\n\n\nfour");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], "one\ntwo");
  EXPECT_EQ(p[2], "four");
}

// ---------------------------------------------------------- normalize ----

TEST(NormalizeTest, WhitespaceCollapse) {
  EXPECT_EQ(NormalizeWhitespace("a   b\t c"), "a b c");
  EXPECT_EQ(NormalizeWhitespace("  lead trail  "), "lead trail");
  EXPECT_EQ(NormalizeWhitespace("a\n\n\n\nb"), "a\n\nb");
  EXPECT_EQ(NormalizeWhitespace("a \nb"), "a\nb");
}

TEST(NormalizeTest, PunctuationMapping) {
  // Curly quotes, em dash, ellipsis, fullwidth A.
  std::string input =
      "\xE2\x80\x9Cq\xE2\x80\x9D \xE2\x80\x94 \xE2\x80\xA6 \xEF\xBC\xA1";
  EXPECT_EQ(NormalizePunctuation(input), "\"q\" - ... A");
}

TEST(NormalizeTest, FixUnicodeRemovesControlAndMojibake) {
  std::string input = "it\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2s \x01 fine\xEF\xBB\xBF";
  std::string out = FixUnicode(input);
  EXPECT_EQ(out, "it's  fine");
}

TEST(NormalizeTest, FixUnicodeKeepsValidMultibyte) {
  std::string input = "caf\xC3\xA9 \xE4\xB8\xAD";
  EXPECT_EQ(FixUnicode(input), input);
}

TEST(NormalizeTest, RemoveCharsUtf8Set) {
  EXPECT_EQ(RemoveChars("a\xE2\x97\x86"
                        "b\xE2\x97\x8F"
                        "c",
                        "\xE2\x97\x86\xE2\x97\x8F"),
            "abc");
}

// ------------------------------------------------------------ lexicon ----

TEST(LexiconTest, BuiltinsNonEmptyAndQueryable) {
  EXPECT_GT(Lexicon::EnglishStopwords().size(), 100u);
  EXPECT_TRUE(Lexicon::EnglishStopwords().Contains("the"));
  EXPECT_FALSE(Lexicon::EnglishStopwords().Contains("photosynthesis"));
  EXPECT_TRUE(Lexicon::FlaggedWords().Contains("casino"));
  EXPECT_TRUE(Lexicon::CommonVerbs().Contains("describe"));
}

TEST(LexiconTest, AddExtends) {
  Lexicon lex{"a"};
  EXPECT_FALSE(lex.Contains("b"));
  lex.Add("b");
  EXPECT_TRUE(lex.Contains("b"));
}

// ------------------------------------------------------------ lang id ----

TEST(LangIdTest, IdentifiesEnglish) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "The committee published a detailed report about the economy and the "
      "people who live in the region.");
  EXPECT_EQ(r.lang, "en");
  EXPECT_GT(r.confidence, 0.5);
}

TEST(LangIdTest, IdentifiesChinese) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "\xe7\xa0\x94\xe7\xa9\xb6\xe4\xba\xba\xe5\x91\x98\xe5\x88\x86\xe6\x9e\x90"
      "\xe4\xba\x86\xe5\xae\x9e\xe9\xaa\x8c\xe7\xbb\x93\xe6\x9e\x9c\xe3\x80\x82");
  EXPECT_EQ(r.lang, "zh");
}

TEST(LangIdTest, IdentifiesGerman) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "die forscher beschreiben das verfahren und die ergebnisse des "
      "experiments mit grosser sorgfalt und vielen worten");
  EXPECT_EQ(r.lang, "de");
}

TEST(LangIdTest, ScoreForLanguage) {
  const auto& id = LanguageIdentifier::Default();
  std::string en = "the researchers describe the results of the experiment";
  EXPECT_GT(id.Score(en, "en"), id.Score(en, "zh"));
  EXPECT_DOUBLE_EQ(id.Score(en, "klingon"), 0.0);
}

TEST(LangIdTest, EmptyInputIsUndetermined) {
  LangScore r = LanguageIdentifier::Default().Identify("");
  EXPECT_LE(r.confidence, 1.0);  // defined behavior, no crash
}

TEST(LangIdTest, CustomProfile) {
  LanguageIdentifier id;
  id.AddProfile("aa", "aaaa aaa aaaa aaa aaaa");
  id.AddProfile("bb", "bbbb bbb bbbb bbb bbbb");
  EXPECT_EQ(id.Identify("aaa aaaa aaa").lang, "aa");
  EXPECT_EQ(id.Identify("bbb bbbb bbb").lang, "bb");
}

// --------------------------------- flat-table kernels vs map references ----
//
// DuplicateNgramRatio and LanguageIdentifier use open-addressing flat tables.
// The node-based implementations they replaced live on here as references;
// every double must match them bit for bit (EXPECT_EQ, not a tolerance),
// because the filters write these values as stats.

double ReferenceDuplicateNgramRatio(const std::vector<uint64_t>& grams) {
  if (grams.empty()) return 0.0;
  std::unordered_set<uint64_t> unique(grams.begin(), grams.end());
  return 1.0 - static_cast<double>(unique.size()) /
                   static_cast<double>(grams.size());
}

double ReferenceCjkRatio(std::string_view s) {
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

// Per-profile unordered_map scoring: five lookups per trigram.
class ReferenceLanguageIdentifier {
 public:
  void AddProfile(const std::string& lang, std::string_view seed_text) {
    Profile* profile = nullptr;
    for (auto& [name, p] : profiles_) {
      if (name == lang) profile = &p;
    }
    if (profile == nullptr) {
      profiles_.emplace_back(lang, Profile{});
      profile = &profiles_.back().second;
    }
    std::unordered_map<uint64_t, double> counts;
    double total = 0;
    for (uint64_t h : HashedCharNgrams(AsciiToLower(seed_text), 3)) {
      counts[h] += 1;
      total += 1;
    }
    double denom = total + static_cast<double>(counts.size()) + 1.0;
    for (const auto& [h, c] : counts) {
      profile->log_prob[h] = std::log((c + 1.0) / denom);
    }
    profile->fallback_log_prob = std::log(1.0 / denom) - 1.0;
    profile->cjk_expectation = ReferenceCjkRatio(seed_text);
  }

  LangScore Identify(std::string_view s) const {
    auto scores = ScoresFor(s);
    if (scores.empty()) return {"und", 0.0};
    double max_logp = scores[0].second;
    for (const auto& [lang, logp] : scores) max_logp = std::max(max_logp, logp);
    double z = 0;
    for (auto& [lang, logp] : scores) {
      logp = std::exp((logp - max_logp) * 3.0);
      z += logp;
    }
    auto best = std::max_element(
        scores.begin(), scores.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    return {best->first, best->second / z};
  }

  double Score(std::string_view s, std::string_view lang) const {
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
    return target < 0 ? 0.0 : target / z;
  }

 private:
  struct Profile {
    std::unordered_map<uint64_t, double> log_prob;
    double fallback_log_prob = -12.0;
    double cjk_expectation = 0.0;
  };

  std::vector<std::pair<std::string, double>> ScoresFor(
      std::string_view s) const {
    std::vector<std::pair<std::string, double>> scores;
    std::vector<uint64_t> grams = HashedCharNgrams(AsciiToLower(s), 3);
    double cjk = ReferenceCjkRatio(s);
    for (const auto& [lang, profile] : profiles_) {
      double logp = 0;
      if (!grams.empty()) {
        for (uint64_t h : grams) {
          auto it = profile.log_prob.find(h);
          logp += it != profile.log_prob.end() ? it->second
                                               : profile.fallback_log_prob;
        }
        logp /= static_cast<double>(grams.size());
      } else {
        logp = profile.fallback_log_prob;
      }
      double mismatch = cjk - profile.cjk_expectation;
      logp -= 6.0 * mismatch * mismatch;
      scores.emplace_back(lang, logp);
    }
    return scores;
  }

  std::vector<std::pair<std::string, Profile>> profiles_;
};

// Random text mixing ASCII words, Latin-1 letters, CJK ideographs, CJK
// punctuation, emoji and (when `raw_bytes`) arbitrary bytes, which are
// usually malformed UTF-8.
std::string RandomText(Rng* rng, size_t codepoints, bool raw_bytes) {
  std::string out;
  for (size_t i = 0; i < codepoints; ++i) {
    switch (rng->NextBelow(raw_bytes ? 7 : 6)) {
      case 0:
      case 1:
        out.push_back(static_cast<char>('a' + rng->NextBelow(26)));
        break;
      case 2:
        out.push_back(rng->Bernoulli(0.5) ? ' ' : 'E');
        break;
      case 3:
        EncodeUtf8(static_cast<uint32_t>(0xC0 + rng->NextBelow(0x40)), &out);
        break;
      case 4:
        EncodeUtf8(static_cast<uint32_t>(0x4E00 + rng->NextBelow(0x5200)),
                   &out);
        break;
      case 5:
        EncodeUtf8(rng->Bernoulli(0.5)
                       ? static_cast<uint32_t>(0x3000 + rng->NextBelow(0x40))
                       : static_cast<uint32_t>(0x1F300 + rng->NextBelow(0x300)),
                   &out);
        break;
      default:
        out.push_back(static_cast<char>(rng->NextBelow(256)));
        break;
    }
  }
  return out;
}

// Texts the kernels are checked on: the fixtures of the tests above, a
// repetitive line, edge lengths around the gram sizes, then seeded random
// UTF-8 and pure-CJK strings.
std::vector<std::string> KernelTexts() {
  std::vector<std::string> texts = {
      "",
      "a",
      "ab",
      "abc",
      "abcdefghi",
      "abcdefghij",
      "The committee published a detailed report about the economy and the "
      "people who live in the region.",
      "\xe7\xa0\x94\xe7\xa9\xb6\xe4\xba\xba\xe5\x91\x98\xe5\x88\x86\xe6\x9e\x90"
      "\xe4\xba\x86\xe5\xae\x9e\xe9\xaa\x8c\xe7\xbb\x93\xe6\x9e\x9c\xe3\x80\x82",
      "die forscher beschreiben das verfahren und die ergebnisse des "
      "experiments mit grosser sorgfalt und vielen worten",
      "the researchers describe the results of the experiment",
      "aaa aaaa aaa",
      "bbb bbbb bbb",
      "buy now buy now buy now buy now buy now buy now buy now buy now",
  };
  Rng rng(20261019);
  for (int i = 0; i < 40; ++i) {
    texts.push_back(RandomText(&rng, 1 + rng.NextBelow(400), i % 2 == 1));
  }
  for (int i = 0; i < 10; ++i) {
    std::string cjk;
    size_t n = 1 + rng.NextBelow(200);
    for (size_t j = 0; j < n; ++j) {
      EncodeUtf8(static_cast<uint32_t>(0x4E00 + rng.NextBelow(64)), &cjk);
    }
    texts.push_back(cjk);
  }
  return texts;
}

TEST(FlatKernelTest, DuplicateRatioMatchesSetOnGramVectors) {
  std::vector<std::vector<uint64_t>> cases = {
      {},
      {0},
      {0, 0, 0},
      {0, 1, 0, 1},
      {42},
      std::vector<uint64_t>(1000, 7),
      std::vector<uint64_t>(70000, 0xffffffffffffffffULL),
  };
  Rng rng(13);
  for (size_t size : {2u, 3u, 17u, 64u, 1000u, 1300u, 70000u, 140000u}) {
    // Wide values (few repeats), then a narrow range (many repeats, long
    // probe chains) that includes 0, then values sharing their top bits.
    std::vector<uint64_t> wide, narrow, high;
    for (size_t i = 0; i < size; ++i) {
      wide.push_back(rng.Next());
      narrow.push_back(rng.NextBelow(size / 2 + 1));
      high.push_back((rng.NextBelow(size) << 1) | 0xff00000000000000ULL);
    }
    cases.push_back(std::move(wide));
    cases.push_back(std::move(narrow));
    cases.push_back(std::move(high));
  }
  for (const auto& grams : cases) {
    EXPECT_EQ(DuplicateNgramRatio(grams), ReferenceDuplicateNgramRatio(grams))
        << "size " << grams.size();
  }
}

TEST(FlatKernelTest, CharRepRatioMatchesSetOnTexts) {
  for (const std::string& text : KernelTexts()) {
    for (size_t n : {3u, 10u}) {
      std::vector<uint64_t> grams = HashedCharNgrams(text, n);
      EXPECT_EQ(DuplicateNgramRatio(grams), ReferenceDuplicateNgramRatio(grams))
          << "n=" << n << " text: " << text;
    }
  }
}

// Seed texts for identifiers built the same way on both implementations.
std::vector<std::pair<std::string, std::string>> KernelSeeds() {
  return {
      {"en", "the quick brown fox jumps over the lazy dog. this is a sentence "
             "about the world and the people who live in it."},
      {"de", "der schnelle braune fuchs springt ueber den faulen hund. das ist "
             "ein satz ueber die welt und die menschen die darin leben."},
      {"fr", "le rapide renard brun saute par dessus le chien paresseux. ceci "
             "est une phrase sur le monde et les gens qui y vivent."},
      {"es", "el rapido zorro marron salta sobre el perro perezoso. esta es "
             "una frase sobre el mundo y la gente que vive en el."},
      {"zh", "\xe4\xbb\x8a\xe5\xa4\xa9\xe5\xa4\xa9\xe6\xb0\x94\xe5\xbe\x88\xe5"
             "\xa5\xbd\xe3\x80\x82\xe6\x88\x91\xe4\xbb\xac\xe5\x9c\xa8\xe5\x85"
             "\xac\xe5\x9b\xad\xe9\x87\x8c\xe6\x95\xa3\xe6\xad\xa5\xe3\x80\x82"},
  };
}

void ExpectSameScores(const LanguageIdentifier& id,
                      const ReferenceLanguageIdentifier& ref,
                      const std::vector<std::string>& texts) {
  for (const std::string& text : texts) {
    LangScore got = id.Identify(text);
    LangScore want = ref.Identify(text);
    EXPECT_EQ(got.lang, want.lang) << text;
    EXPECT_EQ(got.confidence, want.confidence) << text;
    for (const std::string& lang : id.Languages()) {
      EXPECT_EQ(id.Score(text, lang), ref.Score(text, lang))
          << lang << " on " << text;
    }
    EXPECT_EQ(id.Score(text, "klingon"), ref.Score(text, "klingon"));
  }
}

TEST(FlatKernelTest, LanguageScoresMatchPerProfileMaps) {
  LanguageIdentifier id;
  ReferenceLanguageIdentifier ref;
  std::vector<std::string> texts = KernelTexts();
  for (const auto& [lang, seed] : KernelSeeds()) {
    id.AddProfile(lang, seed);
    ref.AddProfile(lang, seed);
    texts.push_back(seed);
    // Checked after every profile, so each width of the table is covered.
    ExpectSameScores(id, ref, texts);
  }
}

TEST(FlatKernelTest, ReAddedProfileExtendsLikeTheMaps) {
  // Re-adding a language keeps the grams only its first seed had, takes the
  // second seed's log probs for grams in both, and the second seed's
  // fallback everywhere else.
  LanguageIdentifier id;
  ReferenceLanguageIdentifier ref;
  const std::pair<const char*, const char*> adds[] = {
      {"aa", "aaaa aaa xyzzy aaaa"},
      {"bb", "bbbb bbb bbbb bbb bbbb"},
      {"aa", "aaa qqq aaa qqq aaa qqq aaa qqq"},
  };
  for (const auto& [lang, seed] : adds) {
    id.AddProfile(lang, seed);
    ref.AddProfile(lang, seed);
  }
  EXPECT_EQ(id.Languages(), (std::vector<std::string>{"aa", "bb"}));
  std::vector<std::string> texts = KernelTexts();
  for (const char* probe : {"xyzzy xyzzy", "qqq aaa", "aaaa", "bbb zzz"}) {
    texts.push_back(probe);
  }
  ExpectSameScores(id, ref, texts);
  // The first seed's grams survive: a profile built from the second seed
  // alone scores "xyzzy" lower.
  LanguageIdentifier fresh;
  fresh.AddProfile("aa", "aaa qqq aaa qqq aaa qqq aaa qqq");
  fresh.AddProfile("bb", "bbbb bbb bbbb bbb bbbb");
  EXPECT_GT(id.Score("xyzzy xyzzy", "aa"), fresh.Score("xyzzy xyzzy", "aa"));
}

TEST(FlatKernelTest, PooledCallsMatchTheReferences) {
  // Per-thread scratch and the shared identifier under a 4-thread pool;
  // tools/check.sh runs this binary under TSan too.
  const LanguageIdentifier& id = LanguageIdentifier::Default();
  std::vector<std::string> texts = KernelTexts();
  std::vector<double> rep(texts.size()), lang(texts.size());
  ThreadPool pool(4);
  pool.ParallelFor(texts.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      rep[i] = DuplicateNgramRatio(HashedCharNgrams(texts[i], 10));
      lang[i] = id.Score(texts[i], "en");
    }
  });
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(rep[i],
              ReferenceDuplicateNgramRatio(HashedCharNgrams(texts[i], 10)));
    EXPECT_EQ(lang[i], id.Score(texts[i], "en"));
  }
}

// ----------------------------------------------------------- ngram LM ----

TEST(NgramLmTest, TrainingLowersPerplexityOnInDomainText) {
  NgramLm lm;
  for (int i = 0; i < 20; ++i) {
    lm.AddDocument("the quick brown fox jumps over the lazy dog");
  }
  lm.Finalize();
  double in_domain = lm.Perplexity("the quick brown fox");
  double out_domain = lm.Perplexity("zxcvb qwerty asdfgh uiop");
  EXPECT_LT(in_domain, out_domain);
  EXPECT_LT(in_domain, 50.0);
}

TEST(NgramLmTest, EmptyTextSentinel) {
  NgramLm lm;
  lm.Finalize();
  EXPECT_DOUBLE_EQ(lm.Perplexity(""), 1e6);
}

TEST(NgramLmTest, MoreDataImprovesHeldOut) {
  std::vector<std::string> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back(
        "the researchers describe the results of the experiment with care");
    corpus.push_back("the committee presents a detailed report every year");
  }
  NgramLm small;
  small.AddDocument(corpus[0]);
  small.Finalize();
  NgramLm large;
  for (const auto& doc : corpus) large.AddDocument(doc);
  large.Finalize();
  // Held-out text from the second document family, which only the larger
  // training set has seen.
  std::string held_out = "the committee presents a detailed report";
  EXPECT_LT(large.Perplexity(held_out), small.Perplexity(held_out));
}

TEST(NgramLmTest, DefaultEnglishPrefersFluentText) {
  const NgramLm& lm = NgramLm::DefaultEnglish();
  double fluent = lm.Perplexity("the model learns to predict the next word");
  double garbage = lm.Perplexity("qq ww ee rr tt yy uu ii oo pp");
  EXPECT_LT(fluent, garbage);
}

TEST(NgramLmTest, SerializeRoundTripPreservesScores) {
  NgramLm lm;
  lm.AddDocument("the quick brown fox jumps over the lazy dog");
  lm.AddDocument("the committee publishes a detailed report every year");
  lm.Finalize();
  std::string blob = lm.Serialize();
  auto restored = NgramLm::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (std::string_view text :
       {"the quick brown fox", "a detailed report", "unseen words here"}) {
    EXPECT_DOUBLE_EQ(restored.value().Perplexity(text), lm.Perplexity(text))
        << text;
  }
  EXPECT_EQ(restored.value().total_tokens(), lm.total_tokens());
  EXPECT_EQ(restored.value().vocab_size(), lm.vocab_size());
  EXPECT_TRUE(restored.value().finalized());
}

TEST(NgramLmTest, DeserializeRejectsCorruption) {
  NgramLm lm;
  lm.AddDocument("some training text for the model");
  std::string blob = lm.Serialize();
  EXPECT_FALSE(NgramLm::Deserialize("garbage").ok());
  EXPECT_FALSE(
      NgramLm::Deserialize(blob.substr(0, blob.size() / 2)).ok());
  blob += "extra";
  EXPECT_FALSE(NgramLm::Deserialize(blob).ok());
}

TEST(NgramLmTest, TokenAndVocabCounters) {
  NgramLm lm;
  lm.AddDocument("a b c a b");
  lm.Finalize();
  EXPECT_EQ(lm.total_tokens(), 5u);
  EXPECT_EQ(lm.vocab_size(), 3u);
}

}  // namespace
}  // namespace dj::text
