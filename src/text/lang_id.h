#ifndef DJ_TEXT_LANG_ID_H_
#define DJ_TEXT_LANG_ID_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dj::text {

/// Result of language identification.
struct LangScore {
  std::string lang;    ///< ISO-ish code: "en", "zh", "de", "fr", "es".
  double confidence;   ///< Softmax probability across known languages.
};

/// Character-trigram naive-Bayes language identifier with built-in profiles
/// (en/zh/de/fr/es) trained from embedded seed text, plus a CJK-ratio prior
/// that makes zh detection robust on short strings. Stands in for the
/// fasttext-based model of the language_id_score filter.
class LanguageIdentifier {
 public:
  /// Shared instance with built-in profiles.
  static const LanguageIdentifier& Default();

  LanguageIdentifier();

  /// Adds or extends a language profile from sample text.
  void AddProfile(const std::string& lang, std::string_view seed_text);

  /// Best language and confidence for `s`. Empty input scores ("und", 0).
  LangScore Identify(std::string_view s) const;

  /// Confidence that `s` is in language `lang` (0 when unknown lang).
  double Score(std::string_view s, std::string_view lang) const;

  std::vector<std::string> Languages() const;

 private:
  struct Profile {
    std::string lang;
    double cjk_expectation = 0.0;  // expected CJK codepoint ratio
  };

  /// Slot holding `gram`'s row index, or the empty slot (0, which is also
  /// the fallback row) where it would go.
  size_t FindSlot(uint64_t gram) const;
  /// Row index of `gram`, appending a fallback-filled row when absent. The
  /// caller has reserved room for it.
  uint32_t FindOrAddRow(uint64_t gram);

  std::vector<Profile> profiles_;
  // Merged table: trigram hash -> one row of profiles_.size() log probs,
  // holding each profile's fallback where it lacks the gram. Row 0 is the
  // fallback row. One probe per trigram scores every language.
  std::vector<uint32_t> slots_;  // row indexes, open addressing; 0 = empty
  int slot_bits_ = 0;            // slots_.size() == 1 << slot_bits_
  std::vector<uint64_t> grams_;  // trigram hash of each row
  std::vector<double> rows_;     // row-major, profiles_.size() wide
  std::vector<bool> present_;    // cell holds a seen gram, not a fallback

  std::vector<std::pair<std::string, double>> ScoresFor(
      std::string_view s) const;
};

}  // namespace dj::text

#endif  // DJ_TEXT_LANG_ID_H_
