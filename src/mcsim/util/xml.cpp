#include "mcsim/util/xml.hpp"

#include <cctype>

namespace mcsim::xml {

const std::string Element::kEmpty{};

ParseError::ParseError(const std::string& reason, std::size_t offset)
    : std::runtime_error("xml parse error at offset " + std::to_string(offset) +
                         ": " + reason),
      offset_(offset) {}

const std::string& Element::attr(const std::string& key,
                                 const std::string& fallback) const {
  auto it = attributes.find(key);
  return it == attributes.end() ? fallback : it->second;
}

const std::string& Element::requiredAttr(const std::string& key) const {
  auto it = attributes.find(key);
  if (it == attributes.end())
    throw std::out_of_range("missing required attribute '" + key +
                            "' on element <" + name + ">");
  return it->second;
}

bool Element::hasAttr(const std::string& key) const {
  return attributes.count(key) != 0;
}

std::vector<const Element*> Element::childrenNamed(std::string_view n) const {
  std::vector<const Element*> out;
  for (const auto& c : children)
    if (c->name == n) out.push_back(c.get());
  return out;
}

const Element* Element::firstChild(std::string_view n) const {
  for (const auto& c : children)
    if (c->name == n) return c.get();
  return nullptr;
}

namespace {

/// Recursive-descent cursor over the input.
class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  std::unique_ptr<Element> parseDocument() {
    skipProlog();
    auto root = parseElement();
    skipMiscellaneous();
    if (pos_ != in_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& reason) const {
    throw ParseError(reason, pos_);
  }

  bool eof() const { return pos_ >= in_.size(); }
  char peek() const { return eof() ? '\0' : in_[pos_]; }
  char get() {
    if (eof()) fail("unexpected end of input");
    return in_[pos_++];
  }
  bool consume(std::string_view lit) {
    if (in_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }
  void expect(std::string_view lit) {
    if (!consume(lit)) fail("expected '" + std::string(lit) + "'");
  }
  void skipWhitespace() {
    while (!eof() && std::isspace(static_cast<unsigned char>(in_[pos_]))) ++pos_;
  }

  static bool isNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool isNameChar(char c) {
    return isNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.';
  }

  std::string parseName() {
    if (eof() || !isNameStart(peek())) fail("expected name");
    std::size_t start = pos_;
    while (!eof() && isNameChar(in_[pos_])) ++pos_;
    return std::string(in_.substr(start, pos_ - start));
  }

  std::string decodeEntity() {
    // Called with pos_ just past '&'.
    std::size_t semi = in_.find(';', pos_);
    if (semi == std::string_view::npos || semi - pos_ > 8)
      fail("unterminated entity reference");
    std::string_view name = in_.substr(pos_, semi - pos_);
    pos_ = semi + 1;
    if (name == "lt") return "<";
    if (name == "gt") return ">";
    if (name == "amp") return "&";
    if (name == "apos") return "'";
    if (name == "quot") return "\"";
    if (!name.empty() && name[0] == '#') {
      int base = 10;
      std::string_view digits = name.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits.remove_prefix(1);
      }
      unsigned long code = 0;
      try {
        code = std::stoul(std::string(digits), nullptr, base);
      } catch (const std::exception&) {
        fail("bad character reference");
      }
      if (code == 0 || code > 0x10FFFF) fail("character reference out of range");
      // Encode as UTF-8.
      std::string out;
      if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
      return out;
    }
    fail("unknown entity '&" + std::string(name) + ";'");
  }

  std::string parseAttributeValue() {
    const char quote = get();
    if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
    std::string value;
    while (true) {
      if (eof()) fail("unterminated attribute value");
      char c = get();
      if (c == quote) break;
      if (c == '<') fail("'<' in attribute value");
      if (c == '&') value += decodeEntity();
      else value.push_back(c);
    }
    return value;
  }

  void skipCommentOrPI() {
    if (consume("<!--")) {
      std::size_t end = in_.find("-->", pos_);
      if (end == std::string_view::npos) fail("unterminated comment");
      pos_ = end + 3;
    } else if (consume("<?")) {
      std::size_t end = in_.find("?>", pos_);
      if (end == std::string_view::npos) fail("unterminated processing instruction");
      pos_ = end + 2;
    } else if (consume("<!DOCTYPE")) {
      // Skip to matching '>' (no internal-subset support).
      std::size_t end = in_.find('>', pos_);
      if (end == std::string_view::npos) fail("unterminated DOCTYPE");
      pos_ = end + 1;
    } else {
      fail("unexpected markup");
    }
  }

  void skipProlog() {
    while (true) {
      skipWhitespace();
      if (in_.substr(pos_, 2) == "<?" || in_.substr(pos_, 4) == "<!--" ||
          in_.substr(pos_, 9) == "<!DOCTYPE") {
        skipCommentOrPI();
      } else {
        break;
      }
    }
  }

  void skipMiscellaneous() {
    while (true) {
      skipWhitespace();
      if (in_.substr(pos_, 2) == "<?" || in_.substr(pos_, 4) == "<!--") {
        skipCommentOrPI();
      } else {
        break;
      }
    }
  }

  std::unique_ptr<Element> parseElement() {
    expect("<");
    auto elem = std::make_unique<Element>();
    elem->name = parseName();
    // Attributes.
    while (true) {
      skipWhitespace();
      if (consume("/>")) return elem;
      if (consume(">")) break;
      std::string key = parseName();
      skipWhitespace();
      expect("=");
      skipWhitespace();
      std::string value = parseAttributeValue();
      if (!elem->attributes.emplace(std::move(key), std::move(value)).second)
        fail("duplicate attribute on <" + elem->name + ">");
    }
    // Content.
    while (true) {
      if (eof()) fail("unterminated element <" + elem->name + ">");
      if (in_.substr(pos_, 2) == "</") {
        pos_ += 2;
        std::string closing = parseName();
        if (closing != elem->name)
          fail("mismatched closing tag </" + closing + "> for <" + elem->name + ">");
        skipWhitespace();
        expect(">");
        return elem;
      }
      if (in_.substr(pos_, 4) == "<!--" || in_.substr(pos_, 2) == "<?") {
        skipCommentOrPI();
        continue;
      }
      if (peek() == '<') {
        // Bounded recursion: hostile nesting fails instead of overflowing
        // the stack.
        if (depth_ == kMaxDepth)
          fail("elements nested deeper than " + std::to_string(kMaxDepth));
        ++depth_;
        elem->children.push_back(parseElement());
        --depth_;
        continue;
      }
      char c = get();
      if (c == '&') elem->text += decodeEntity();
      else elem->text.push_back(c);
    }
  }

  /// Elements nested deeper than this below the root are a parse error.
  static constexpr std::size_t kMaxDepth = 256;

  std::string_view in_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< Open elements below the root.
};

}  // namespace

std::unique_ptr<Element> parse(std::string_view input) {
  return Parser(input).parseDocument();
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace mcsim::xml
