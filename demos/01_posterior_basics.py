"""Posterior arithmetic on a handful of noisy votes.

Walks through the core model: labelers with known accuracy estimates vote on
a binary label, and the posterior combines the votes by accuracy-weighted
log-odds. Shows why two mediocre agreeing votes can lose to one excellent
dissenter, and what the clamp does to a "perfect" labeler.
"""

from gtx import (
    ClassPrior,
    LabelRecord,
    LabelerEstimate,
    Method,
    aggregate,
    log_odds,
)


def show(title, labels, estimates, prior=ClassPrior(0.5, 0.5)):
    agg = aggregate(Method.GTX, labels, estimates, prior)
    votes = ", ".join(f"labeler {r.labeler_id} says {r.value}" for r in labels)
    print(f"{title}\n  votes: {votes}")
    print(
        f"  p(y=1) = {agg.soft_p1:.4f}   hard label = {agg.label}   "
        f"confidence = {agg.confidence:.4f}   uncertainty = {1 - agg.confidence:.4f}\n"
    )
    return agg


est = {
    "ana": LabelerEstimate("ana", 0.90),
    "bo": LabelerEstimate("bo", 0.80),
    "cy": LabelerEstimate("cy", 0.98),
}

print("No votes yet: the posterior is the prior, p(y=1) = 0.5.\n")

show(
    "Two agreeing votes reinforce each other:",
    [LabelRecord(0, "ana", 1), LabelRecord(0, "bo", 1)],
    est,
)

show(
    "A disagreement is settled by accuracy, not by count:",
    [LabelRecord(0, "ana", 0), LabelRecord(0, "bo", 0), LabelRecord(0, "cy", 1)],
    est,
)

# each vote shifts the log-odds by +-log_odds(accuracy); print the margins
print("Per-vote log-odds weights:")
for name, e in est.items():
    print(f"  {name}: accuracy {e.accuracy:.2f} -> weight {log_odds(e.accuracy):+.3f}")
print()

perfect = LabelerEstimate("dee", 1.0)
print(
    f"A claimed accuracy of 1.0 is clamped to {perfect.accuracy}; one vote can "
    "reach at most"
)
agg = aggregate(Method.GTX, [LabelRecord(0, "dee", 1)], {"dee": perfect})
print(f"  confidence {agg.confidence:.2f}, never certainty.")

skewed = ClassPrior(0.85, 0.15)
print("\nA skewed prior moves the starting point; one vote for the rare class")
print("flips the label, but only with modest confidence:")
show(
    "  (prior p(y=1) = 0.15, ana votes 1)",
    [LabelRecord(0, "ana", 1)],
    est,
    prior=skewed,
)
