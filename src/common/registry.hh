/**
 * @file
 * The one name-keyed registry behind every pluggable layer: timing
 * backends (BACKEND), exploration strategies (EXPLORE) and scenarios
 * are each a Registry<T>.
 *
 * An entry type T supplies:
 *
 *  - `static constexpr const char* kRegistryKind`, the layer's noun
 *    ("timing backend") every registry error names;
 *  - its key, as a `name()` member function or a `name` field;
 *  - optionally `void validate() const`, which add() runs before the
 *    duplicate check and which fatal()s on an inconsistent entry.
 *
 * Each instantiation declares `template <> void
 * Registry<T>::registerBuiltins(Registry&)` in its header and defines
 * it next to its built-ins, so the registration list lives with the
 * layer it registers.
 */

#ifndef LIBRA_COMMON_REGISTRY_HH
#define LIBRA_COMMON_REGISTRY_HH

#include <concepts>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace libra {

/** Name-keyed collection of T, iterated in registration order. */
template <typename T>
class Registry
{
  public:
    /**
     * The process-wide registry with every built-in entry registered
     * on first use. Do not mutate it concurrently with lookups
     * (registration happens at startup in practice).
     */
    static Registry&
    global()
    {
        static Registry* registry = [] {
            auto* r = new Registry;
            registerBuiltins(*r);
            return r;
        }();
        return *registry;
    }

    /**
     * Register @p entry. Entries are held by pointer, so a find()
     * result stays valid across later add()s.
     * @throws FatalError on a null entry, an empty or duplicate name,
     * or a failed validate().
     */
    void
    add(std::unique_ptr<const T> entry)
    {
        if (!entry)
            fatal("cannot register a null ", T::kRegistryKind);
        const std::string name = nameOf(*entry);
        if (name.empty())
            fatal(T::kRegistryKind, " has no name");
        if constexpr (requires { entry->validate(); })
            entry->validate();
        if (find(name))
            fatal(T::kRegistryKind, " '", name,
                  "' is already registered");
        entries_.push_back(std::move(entry));
    }

    /** Register a value-type entry (scenarios are plain structs). */
    void
    add(T entry)
        requires std::move_constructible<T>
    {
        add(std::make_unique<const T>(std::move(entry)));
    }

    /** Look up by name; nullptr when absent. */
    const T*
    find(const std::string& name) const
    {
        for (const auto& e : entries_) {
            if (nameOf(*e) == name)
                return e.get();
        }
        return nullptr;
    }

    /**
     * Look up by name.
     * @throws FatalError naming the layer, the unknown name and every
     * registered one.
     */
    const T&
    resolve(const std::string& name) const
    {
        if (const T* e = find(name))
            return *e;
        std::string known;
        for (const auto& e : entries_)
            known += (known.empty() ? "" : ", ") + nameOf(*e);
        fatal("unknown ", T::kRegistryKind, " '", name,
              "' (registered: ", known, ")");
    }

    /** All names in registration order. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto& e : entries_)
            out.push_back(nameOf(*e));
        return out;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    /** Add the built-ins; each instantiation defines it beside them. */
    static void registerBuiltins(Registry& registry);

    static std::string
    nameOf(const T& entry)
    {
        if constexpr (requires { entry.name(); })
            return entry.name();
        else
            return entry.name;
    }

    std::vector<std::unique_ptr<const T>> entries_;
};

} // namespace libra

#endif // LIBRA_COMMON_REGISTRY_HH
