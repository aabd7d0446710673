/**
 * @file
 * Minimal fixed-width table printer used by the benchmark harness to emit
 * paper-style rows/series on stdout.
 */

#ifndef LIBRA_COMMON_TABLE_HH
#define LIBRA_COMMON_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace libra {

/** Column-aligned text table with an optional title and header rule. */
class Table
{
  public:
    explicit Table(std::string title = "");

    /** Set the header row. Column count is inferred from it. */
    void header(std::vector<std::string> cells);

    /** Append a data row; must match the header width if one was set. */
    void row(std::vector<std::string> cells);

    /** Convenience: format doubles with @p precision digits. */
    static std::string num(double v, int precision = 2);

    /** Render the table to @p os. */
    void print(std::ostream& os) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace libra

#endif // LIBRA_COMMON_TABLE_HH
