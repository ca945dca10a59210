package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Canonicalize, Provenance}
import repro.core.Model.Phi
import repro.core.Provenance.Output
import repro.core.Similarity.KeyAttr
import repro.data.{AcademicData, ImdbData, ImdbQueries, SyntheticGen}
import repro.eval.Experiments

/** One query pair: its two canonical relations as lazy DataFrames over the
  * workload's cached source tables, and, where the generator knows them,
  * the expected impact totals Σ I of the two sides.
  */
final case class PairSpec(
    name: String,
    left: DataFrame,
    right: DataFrame,
    attrs: Seq[KeyAttr],
    phi: Phi,
    simFloor: Double = 0.0,
    sideSums: Option[(Double, Double)] = None,
)

/** A named workload: its source data, its query pairs, the budget of the
  * exact solve, and the F1 floors its explanations must clear.
  */
sealed trait Workload {
  def name: String
  def exactBudgetMs: Long
  /** Floors on each pair's explanation and evidence F1. */
  def floors: (Double, Double)
  /** Generates and caches the source tables for `seed`; returns the pairs. */
  def generate(spark: SparkSession, seed: Long): Seq[PairSpec]
}

object Workloads {

  val all: Seq[Workload] = Seq(ImdbTemplates, SyntheticDense, AcademicContainment)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** IMDb template Q10 (actresses who starred in no comedy) over the
    * fixed two-view catalogue: the largest of the ten templates, with one
    * dense candidate component. Its inputs do not depend on the seed.
    */
  object ImdbTemplates extends Workload {
    val name = "imdb-templates"
    val data: ImdbData.Config = ImdbData.Config(movies = 600, actors = 720, directors = 180)
    val exactBudgetMs = 1000L
    // The paper: EXPLAIN3D is near-perfect on IMDb.
    val floors = (0.9, 0.9)

    def generate(spark: SparkSession, seed: Long): Seq[PairSpec] = {
      val v = ImdbData.views(spark, data)
      v.movie2.count(); v.person2.count() // materialize the cached base catalogue
      val q = ImdbQueries.q10(v, "comedy")
      Seq(PairSpec(q.name, q.left, q.right, q.attrs, q.phi))
    }
  }

  /** The §5.3 generator at a dense point (n=600, d=0.2, v=100): a small
    * vocabulary puts ~60K candidate matches, most at the calibration floor,
    * on ~1,100 tuples. The seed is the generator seed.
    */
  object SyntheticDense extends Workload {
    val name = "synthetic-dense"
    val exactBudgetMs = 30000L
    // The paper: near-perfect accuracy in all synthetic experiments.
    val floors = (0.9, 0.9)

    def generate(spark: SparkSession, seed: Long): Seq[PairSpec] = {
      val cfg = SyntheticGen.Config(n = 600, d = 0.2, v = 100, seed = 7 + seed)
      val sides = Seq(1, 2).map(s => SyntheticGen.side(spark, cfg, s).cache())
      val sums = sides.map(_.agg(sum(col("val"))).first().getDouble(0))
      val canon = sides.map(s => Canonicalize.canonical(Provenance.relation(s, Output.Sum("val")), Seq("match_attr")))
      Seq(PairSpec(s"n=${cfg.n},d=${cfg.d},v=${cfg.v}", canon(0), canon(1), Seq(KeyAttr("match_attr")),
        Phi.Equiv, sideSums = Some((sums(0), sums(1)))))
    }
  }

  /** OSU against NCES under ⊑ (`Major.Major ⊑ Stats.Program`), the larger
    * of the paper's two Academic pairs. Like the paper's scraped datasets,
    * the pair is fixed: its inputs do not depend on the seed.
    */
  object AcademicContainment extends Workload {
    val name = "academic-containment"
    val exactBudgetMs = 30000L
    // The paper: EXPLAIN3D beats every baseline on Academic; its best
    // baseline (GREEDY) reaches about 0.6 explanation F and 0.7 evidence F.
    val floors = (0.6, 0.7)

    def generate(spark: SparkSession, seed: Long): Seq[PairSpec] = {
      val cfg = AcademicData.OSU
      val major = AcademicData.majorTable(spark, cfg).cache()
      val (school, stats) = AcademicData.ncesTables(spark, cfg)
      Seq(major, school.cache(), stats.cache()).foreach(_.count())
      // Q1: SELECT COUNT(Major) FROM Major; Q2: SELECT SUM(bach_degr)
      // FROM School, Stats WHERE Univ_name = <univ> AND School.ID = Stats.ID.
      val q1 = Canonicalize.canonical(Provenance.relation(major, Output.Count), Seq("Major"),
        extraAttrs = Seq("Degree", "School")).withColumnRenamed("Major", "name")
      val q2 = Canonicalize.canonical(
        Provenance.relation(school.filter(col("Univ_name") === cfg.univName).join(stats, "ID"),
          Output.Sum("bach_degr")),
        Seq("Program")).withColumnRenamed("Program", "name")
      Seq(PairSpec(s"${cfg.univName}-NCES", q1, q2, Seq(KeyAttr("name")), Phi.LessGeneral,
        Experiments.AcademicSimFloor))
    }
  }
}
