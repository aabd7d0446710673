/**
 * @file
 * Tests for the one name-keyed registry template (common/registry.hh)
 * and the three layers built on it: registration order, pointer
 * stability across later registrations, and the shared null / empty /
 * duplicate / unknown-name errors, each naming its layer.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/registry.hh"
#include "core/timing_backend.hh"
#include "explore/explore.hh"
#include "study/matrix.hh"
#include "study/scenario.hh"

namespace libra {
namespace {

/** Minimal value-type entry keyed by a `name` field. */
struct Toy
{
    static constexpr const char* kRegistryKind = "toy";
    std::string name;
    int value = 0;
};

/** Run @p fn; it must throw a FatalError whose message has @p needle. */
template <typename Fn>
void
expectFatalNaming(Fn&& fn, const std::string& needle)
{
    try {
        fn();
        ADD_FAILURE() << "no FatalError; wanted '" << needle << "'";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(Registry, IteratesInRegistrationOrderAndResolvesByName)
{
    Registry<Toy> registry;
    registry.add(Toy{"b", 1});
    registry.add(Toy{"a", 2});
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.names(), (std::vector<std::string>{"b", "a"}));
    ASSERT_NE(registry.find("a"), nullptr);
    EXPECT_EQ(registry.find("a")->value, 2);
    EXPECT_EQ(registry.find("c"), nullptr);
    EXPECT_EQ(&registry.resolve("b"), registry.find("b"));
    try {
        registry.resolve("c");
        ADD_FAILURE() << "resolve of an absent name returned";
    } catch (const FatalError& e) {
        EXPECT_EQ(fatalMessage(e), "unknown toy 'c' (registered: b, a)");
    }
}

TEST(Registry, RejectsNullEmptyAndDuplicateEntries)
{
    Registry<Toy> registry;
    registry.add(Toy{"a", 1});
    expectFatalNaming([&] { registry.add(nullptr); },
                      "cannot register a null toy");
    expectFatalNaming([&] { registry.add(Toy{"", 2}); },
                      "toy has no name");
    expectFatalNaming([&] { registry.add(Toy{"a", 3}); },
                      "toy 'a' is already registered");
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.find("a")->value, 1);
}

/** A scenario that passes Scenario::validate(). */
Scenario
stubScenario(std::string name)
{
    Scenario s;
    s.name = std::move(name);
    s.format = [](const std::vector<LibraInputs>&,
                  const std::vector<LibraReport>&) {
        return ScenarioOutput{};
    };
    return s;
}

TEST(Registry, FindPointerSurvivesLaterAdds)
{
    // Scenarios are registered by value; the registry must not move
    // them when it grows, or `first` would dangle (ASan catches the
    // read below when it does).
    ScenarioRegistry registry;
    registry.add(stubScenario("first"));
    const Scenario* first = registry.find("first");
    ASSERT_NE(first, nullptr);
    for (int i = 0; i < 64; ++i)
        registry.add(stubScenario("later-" + std::to_string(i)));
    EXPECT_EQ(registry.size(), 65u);
    EXPECT_EQ(registry.find("first"), first);
    EXPECT_EQ(first->name, "first");
    EXPECT_TRUE(static_cast<bool>(first->format));
}

TEST(Registry, ScenarioValidationRunsOnAdd)
{
    ScenarioRegistry registry;
    Scenario noFormat;
    noFormat.name = "bare";
    expectFatalNaming([&] { registry.add(std::move(noFormat)); },
                      "scenario 'bare' has no formatter");
    Scenario both = stubScenario("both");
    both.space = [] { return DesignSpace{}; };
    expectFatalNaming([&] { registry.add(std::move(both)); },
                      "scenario 'both' declares both a design space");
    EXPECT_EQ(registry.size(), 0u);
}

// --- Each layer's unknown-name and duplicate errors --------------------

class StubBackend final : public TimingBackend
{
  public:
    explicit StubBackend(std::string name) : name_(std::move(name)) {}
    std::string name() const override { return name_; }
    std::string description() const override { return "test only"; }
    CollectiveTiming
    timing(CollectiveType, Bytes, const std::vector<DimSpan>& spans,
           const BwConfig&, bool) const override
    {
        CollectiveTiming t;
        t.trafficPerDim.assign(spans.size(), 0.0);
        t.timePerDim.assign(spans.size(), 0.0);
        return t;
    }

  private:
    std::string name_;
};

class StubExplore final : public ExploreStrategy
{
  public:
    explicit StubExplore(std::string name) : name_(std::move(name)) {}
    std::string name() const override { return name_; }
    std::string description() const override { return "test only"; }
    ExploreResult
    explore(const std::vector<Candidate>&,
            const ExploreSweepFn&) const override
    {
        return {};
    }

  private:
    std::string name_;
};

TEST(Registry, BackendLayerNamesItselfInErrors)
{
    expectFatalNaming([] { resolveTimingBackend("no-such"); },
                      "unknown timing backend 'no-such' (registered: "
                      "analytical, chunk-sim, themis)");
    expectFatalNaming(
        [] {
            TimingBackendRegistry::global().add(
                std::make_unique<StubBackend>("themis"));
        },
        "timing backend 'themis' is already registered");
    EXPECT_EQ(TimingBackendRegistry::global().size(), 3u);
}

TEST(Registry, ExploreLayerNamesItselfInErrors)
{
    expectFatalNaming([] { canonicalExploreSpec("no-such"); },
                      "unknown exploration strategy 'no-such' "
                      "(registered: exhaustive, prune)");
    expectFatalNaming(
        [] {
            ExploreRegistry::global().add(
                std::make_unique<StubExplore>("prune"));
        },
        "exploration strategy 'prune' is already registered");
    EXPECT_EQ(ExploreRegistry::global().size(), 2u);
}

TEST(Registry, ScenarioLayerNamesItselfInErrors)
{
    // The serve protocol reports this message to clients, which match
    // on "unknown scenario".
    expectFatalNaming([] { runScenarioMatrix({"no-such"}); },
                      "unknown scenario 'no-such' (registered: tbl1, ");
    const std::size_t before = ScenarioRegistry::global().size();
    expectFatalNaming(
        [] { ScenarioRegistry::global().add(stubScenario("fig13")); },
        "scenario 'fig13' is already registered");
    EXPECT_EQ(ScenarioRegistry::global().size(), before);
}

} // namespace
} // namespace libra
