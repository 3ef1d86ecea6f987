#ifndef FNPROXY_XML_XML_H_
#define FNPROXY_XML_XML_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fnproxy::xml {

/// A minimal XML element tree: elements with attributes, child elements and
/// text content. Sufficient for the function-template files (paper Fig. 3)
/// and for serializing query results as XML documents (the paper's proxy
/// stores "query result files" as ~300 MB of XML).
///
/// Supported: elements, attributes (single/double quoted), character data,
/// comments, XML declarations (skipped), entity escapes (&lt; &gt; &amp;
/// &quot; &apos;). Not supported (rejected): CDATA, processing instructions,
/// DTDs, namespaces semantics (colons are treated as name characters).
class XmlElement {
 public:
  explicit XmlElement(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Concatenated character data directly under this element, whitespace
  /// trimmed at both ends.
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }
  void append_text(std::string_view more) { text_.append(more); }

  /// Attribute access; returns nullptr when absent.
  const std::string* FindAttribute(const std::string& key) const;
  void SetAttribute(std::string key, std::string value);
  const std::map<std::string, std::string>& attributes() const {
    return attributes_;
  }

  /// Children in document order.
  const std::vector<std::unique_ptr<XmlElement>>& children() const {
    return children_;
  }
  /// Appends and returns a new child element.
  XmlElement* AddChild(std::string name);

  /// First child with the given element name, or nullptr.
  const XmlElement* FindChild(std::string_view child_name) const;
  /// All children with the given element name.
  std::vector<const XmlElement*> FindChildren(std::string_view child_name) const;

  /// Text content of the first child named `child_name`; error if missing.
  util::StatusOr<std::string> ChildText(std::string_view child_name) const;

  /// Serializes this subtree as indented XML.
  std::string ToString(int indent = 0) const;

 private:
  std::string name_;
  std::string text_;
  std::map<std::string, std::string> attributes_;
  std::vector<std::unique_ptr<XmlElement>> children_;
};

/// The deepest element nesting ParseXml accepts; the root is level 1. The
/// parser recurses once per level and trees are freed recursively, so the
/// bound keeps hostile input (origin bodies, peer bodies, snapshot regions)
/// from overflowing a thread's stack. The deepest document this repository
/// writes or ships has 6 levels.
inline constexpr int kMaxXmlDepth = 64;

/// Parses a complete XML document and returns its root element. Documents
/// nested deeper than kMaxXmlDepth are a ParseError.
util::StatusOr<std::unique_ptr<XmlElement>> ParseXml(std::string_view input);

/// Escapes the five predefined XML entities in `text`.
std::string EscapeXml(std::string_view text);

/// Appends the escaped form of `text` to `out` without an intermediate
/// string (serialization hot path).
void AppendEscapedXml(std::string& out, std::string_view text);

}  // namespace fnproxy::xml

#endif  // FNPROXY_XML_XML_H_
