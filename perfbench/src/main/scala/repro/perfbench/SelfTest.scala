package repro.perfbench

import repro.core.Model._
import repro.core.Summarize.{Pattern, Summary}

/** Feeds the checker deliberately broken outputs and expects each check to
  * reject them, next to a correct output it must accept. Runs at the start
  * of every benchmark run, so a checker that accepts everything cannot
  * report a correct run.
  */
object SelfTest {

  // T1 = {0: I=1, 1: I=1}, T2 = {2: I=1, 3: I=2} under ≡.
  private val inst = Instance(
    Vector(CTuple(0, 1, Seq("a"), 1.0), CTuple(1, 1, Seq("b"), 1.0)),
    Vector(CTuple(2, 2, Seq("a"), 1.0), CTuple(3, 2, Seq("b"), 2.0)),
    Vector(TupleMatch(0, 2, 0.9), TupleMatch(1, 2, 0.8), TupleMatch(1, 3, 0.7)),
    Phi.Equiv,
  )
  private val valid = ExplanationSet(Set.empty, Map(3L -> ValueChange(3, 2.0, 1.0)), Set((0L, 2L), (1L, 3L)))

  /** (case, violations the check reported, whether it had to reject). */
  private def cases: Seq[(String, Seq[String], Boolean)] = {
    val good = Solution(valid, Checks.logProb(inst, valid), proved = true)
    val targets = Seq(Map("k" -> "x"), Map("k" -> "x"), Map("k" -> "y"))
    val others = Seq(Map("k" -> "y"))
    Seq(
      ("valid explanation set", Checks.completeness(inst, valid) ++ Checks.objective(inst, good), false),
      ("degree-cap violation",
        Checks.completeness(inst, ExplanationSet(Set(3L), Map(2L -> ValueChange(2, 1.0, 2.0)),
          Set((0L, 2L), (1L, 2L)))), true),
      ("impact imbalance", Checks.completeness(inst, valid.copy(values = Map.empty)), true),
      ("evidence outside M_tuple",
        Checks.completeness(inst, ExplanationSet(Set.empty, Map.empty, Set((0L, 3L), (1L, 2L)))), true),
      ("evidence touching Δ", Checks.completeness(inst, valid.copy(delta = Set(0L))), true),
      ("misreported objective", Checks.objective(inst, good.copy(logProb = good.logProb + 1e-3)), true),
      ("proved exact below partitioned",
        Checks.dominance(good, good.copy(logProb = good.logProb + 1.0), Checks.trivialLogProb(inst)), true),
      ("correct summary", Checks.summary(targets, others, Summary(Seq(Pattern("k", "x", 2, 0)), 1)), false),
      ("miscounted summary", Checks.summary(targets, others, Summary(Seq(Pattern("k", "x", 2, 1)), 1)), true),
    )
  }

  /** Names of the cases the checker got wrong. */
  def failures(): Seq[String] =
    cases.collect { case (name, violations, mustReject) if violations.nonEmpty != mustReject => name }
}
