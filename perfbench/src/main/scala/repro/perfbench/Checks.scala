package repro.perfbench

import repro.core.Calibration
import repro.core.Model._
import repro.core.Similarity.KeyAttr
import repro.core.Summarize.Summary
import scala.collection.mutable

/** Output checks, recomputed from the problem definition without calling
  * the program's own checker or scorer. Each returns the violations found;
  * an empty result means the output passed.
  */
object Checks {

  val Tol = 1e-6

  /** Completeness (Def. 3.4): evidence drawn from M_tuple, the degree caps
    * implied by φ, Δ ∩ δ = ∅, no evidence touching Δ, and impact equality
    * in every connected component of the kept tuples under the evidence.
    */
  def completeness(inst: Instance, e: ExplanationSet): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    val byId = (inst.t1.iterator ++ inst.t2.iterator).map(t => t.id -> t).toMap
    val matchSet = inst.matches.iterator.map(m => (m.left, m.right)).toSet

    e.evidence.filterNot(matchSet.contains).take(3).foreach(pr => out += s"evidence $pr not in M_tuple")
    (e.delta ++ e.values.keySet).filterNot(byId.contains).take(3)
      .foreach(id => out += s"explanation names unknown tuple $id")
    e.delta.intersect(e.values.keySet).take(3).foreach(id => out += s"tuple $id in both Δ and δ")
    e.values.foreach { case (id, vc) =>
      if (vc.tupleId != id || vc.newImpact == vc.oldImpact ||
          byId.get(id).exists(_.impact != vc.oldImpact))
        out += s"value change of tuple $id is inconsistent"
    }
    e.evidence.filter { case (l, r) => e.delta(l) || e.delta(r) }.take(3)
      .foreach(pr => out += s"evidence $pr touches a tuple in Δ")
    if (inst.phi != Phi.MoreGeneral)
      e.evidence.groupBy(_._1).collect { case (l, ps) if ps.size > 1 => l }.take(3)
        .foreach(l => out += s"T1 tuple $l has degree > 1 under ${inst.phi}")
    if (inst.phi != Phi.LessGeneral)
      e.evidence.groupBy(_._2).collect { case (r, ps) if ps.size > 1 => r }.take(3)
        .foreach(r => out += s"T2 tuple $r has degree > 1 under ${inst.phi}")
    if (out.nonEmpty) return out.toSeq

    // Impact equality: union the kept tuples along the evidence, then every
    // component's refined T1 and T2 sums must agree. An unmatched kept tuple
    // is a component of its own, so its refined impact must be 0.
    val kept = byId.keys.filterNot(e.delta).toArray
    val idx = kept.zipWithIndex.toMap
    val parent = Array.tabulate(kept.length)(identity)
    def find(i: Int): Int = { var r = i; while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }; r }
    e.evidence.foreach { case (l, r) => parent(find(idx(l))) = find(idx(r)) }
    val balance = mutable.Map.empty[Int, Double]
    kept.indices.foreach { i =>
      val t = byId(kept(i))
      val refined = e.values.get(t.id).map(_.newImpact).getOrElse(t.impact)
      val root = find(i)
      balance(root) = balance.getOrElse(root, 0.0) + (if (t.side == 1) refined else -refined)
    }
    balance.collect { case (root, b) if math.abs(b) > Tol => root }.take(3)
      .foreach(root => out += s"impact imbalance ${balance(root)} in the component of tuple ${kept(root)}")
    out.toSeq
  }

  /** log Pr(E) of Problem 1 from the tuple and match terms, summed with
    * Kahan compensation so the comparison tolerance is not eaten by
    * rounding on 10^5 terms.
    */
  def logProb(inst: Instance, e: ExplanationSet): Double = {
    val p = inst.params
    var sum = 0.0
    var comp = 0.0
    def add(x: Double): Unit = { val y = x - comp; val t = sum + y; comp = (t - sum) - y; sum = t }
    (inst.t1.iterator ++ inst.t2.iterator).foreach { t =>
      add(if (e.delta(t.id)) p.costDelete else if (e.values.contains(t.id)) p.costChange else p.costKeep)
    }
    inst.matches.foreach(m => add(if (e.evidence((m.left, m.right))) math.log(m.p) else math.log(1 - m.p)))
    sum
  }

  /** Value of the trivial explanation: every tuple in Δ, no evidence. */
  def trivialLogProb(inst: Instance): Double =
    logProb(inst, ExplanationSet((inst.t1 ++ inst.t2).map(_.id).toSet, Map.empty, Set.empty))

  def objective(inst: Instance, s: Solution): Seq[String] = {
    val recomputed = logProb(inst, s.explanations)
    if (math.abs(recomputed - s.logProb) <= Tol) Nil
    else Seq(f"reported log Pr(E) ${s.logProb}%.9f but the explanation scores $recomputed%.9f")
  }

  /** A proved exact optimum bounds the partitioned value, which in turn is
    * at least the trivial explanation's.
    */
  def dominance(exact: Solution, partitioned: Solution, trivial: Double): Seq[String] =
    (if (exact.proved && exact.logProb < partitioned.logProb - Tol)
       Seq(s"proved exact ${exact.logProb} below partitioned ${partitioned.logProb}") else Nil) ++
      (if (partitioned.logProb < trivial - Tol)
         Seq(s"partitioned ${partitioned.logProb} below the trivial explanation $trivial") else Nil)

  private def tokens(s: String): Set[String] = s.trim.toLowerCase.split("\\s+", -1).toSet

  /** Similarity of two keys as Section 5.1.2 defines it: token Jaccard on
    * text attributes, 1/(1+(a−b)²) on numeric ones, averaged.
    */
  private def similarity(attrs: Seq[KeyAttr], l: Seq[String], r: Seq[String]): Double = {
    val terms = attrs.indices.map { i =>
      if (attrs(i).numeric) { val d = l(i).trim.toDouble - r(i).trim.toDouble; 1.0 / (1.0 + d * d) }
      else {
        val (a, b) = (tokens(l(i)), tokens(r(i)))
        val uni = (a | b).size
        if (uni > 0) (a & b).size.toDouble / uni else 0.0
      }
    }
    terms.reduce(_ + _) / attrs.size
  }

  /** Blocking and calibration: rebuilds M_tuple from the collected keys
    * (pairs sharing a token of a blocking attribute, then the similarity
    * floor) and requires the same pair set; then every similarity bucket
    * must carry a single probability within [ε, 1−ε].
    */
  def blocking(inst: Instance, attrs: Seq[KeyAttr], simFloor: Double,
      buckets: Int = Calibration.DefaultBuckets): Seq[String] = {
    val blockIdx = attrs.indices.filter(i => !attrs(i).numeric && attrs(i).blocking)
    def blockTokens(t: CTuple) = blockIdx.iterator.flatMap(i => tokens(t.key(i))).toSet
    val index = mutable.Map.empty[String, mutable.ArrayBuffer[CTuple]]
    inst.t1.foreach(t => blockTokens(t).foreach(tok => index.getOrElseUpdate(tok, mutable.ArrayBuffer.empty) += t))
    val expected = mutable.Map.empty[(Long, Long), Double]
    inst.t2.foreach { r =>
      blockTokens(r).iterator.flatMap(tok => index.getOrElse(tok, Nil)).foreach { l =>
        if (!expected.contains((l.id, r.id))) {
          val sim = similarity(attrs, l.key, r.key)
          if (simFloor <= 0.0 || sim >= simFloor) expected((l.id, r.id)) = sim
        }
      }
    }
    val got = inst.matches.iterator.map(m => (m.left, m.right)).toSet
    val missing = expected.keySet.diff(got)
    val extra = got.diff(expected.keySet)
    if (missing.nonEmpty || extra.nonEmpty)
      return Seq(s"M_tuple differs from the rebuilt candidate set: ${missing.size} missing " +
        s"(e.g. ${missing.take(2)}), ${extra.size} extra (e.g. ${extra.take(2)})")

    val pByBucket = inst.matches.groupBy { m =>
      math.min(buckets - 1, math.floor(expected((m.left, m.right)) * buckets).toInt)
    }.view.mapValues(_.map(_.p).distinct).toMap
    pByBucket.collect { case (b, ps) if ps.size != 1 => s"bucket $b carries ${ps.size} probabilities" }.toSeq ++
      inst.matches.find(m => m.p < Calibration.Eps || m.p > 1 - Calibration.Eps)
        .map(m => s"match $m has p outside [ε, 1−ε]")
  }

  /** Stage 3: replays the greedy cover, recounting each pattern's coverage
    * against the targets it had left and against all non-targets, and
    * requires |E_S| = patterns + uncovered targets.
    */
  def summary(targets: Seq[Map[String, String]], others: Seq[Map[String, String]], s: Summary): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    var remaining = targets
    s.patterns.foreach { p =>
      val hit = (m: Map[String, String]) => m.get(p.attr).contains(p.value)
      val covered = remaining.count(hit)
      val othersHit = others.count(hit)
      if (covered != p.targetsCovered || othersHit != p.othersCovered)
        out += s"pattern $p recounts to +$covered/-$othersHit"
      remaining = remaining.filterNot(hit)
    }
    if (remaining.size != s.uncovered) out += s"${remaining.size} targets uncovered, summary says ${s.uncovered}"
    if (s.size != s.patterns.size + s.uncovered) out += s"|E_S| = ${s.size} is not patterns + uncovered"
    out.toSeq
  }
}
