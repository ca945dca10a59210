package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.PerfbenchListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.{Calibration, ExplainSolver, Pipeline, Scoring, Similarity, Summarize}
import repro.core.Model._
import repro.core.Pipeline.PreparedPair
import repro.core.Summarize.Summary
import repro.eval.{Gold, Metrics}
import repro.partition.{Partitioner, PrePartition, SmartPartition}
import scala.collection.immutable.ListMap
import scala.collection.mutable

/** Explain3D benchmark driver: one JVM, one local Spark session, one
  * workload.
  *
  * Set-up starts the session, generates the workload's source tables and
  * runs an untimed warm-up pass: one explanation of every pair and
  * `WarmSolveS` of each solver on it. Then it runs whole rounds over all pairs
  * while less than `--seconds` have passed (at least `MinRounds`) and
  * keeps, per pair, the fastest round. Per pair and round it times two operations:
  *
  *  - the explanation: `Pipeline.prepare` + `SmartPartition.solve`
  *    (BATCH-100) + `Summarize.summarize`, from the lazy query DataFrames;
  *  - the exact solve: `ExplainSolver.solve` under the workload's budget,
  *    repeated until the repetitions add up to `RepeatS`; the fastest
  *    counts. The partitioned solve is timed the same way.
  *
  * Outputs are checked outside the timed regions. A failed check or an
  * unproved solve is a failed operation; a failed check also makes
  * the run incorrect. The last stdout line is the JSON report.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  private val usage =
    "usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
      "> [--seed N] [--seconds S] [--trace 0|1]"

  def parse(argv: Seq[String]): Either[String, Args] = {
    def go(rest: Seq[String], kv: Map[String, String]): Either[String, Map[String, String]] = rest match {
      case Seq() => Right(kv)
      case k +: v +: tail if k.startsWith("--") => go(tail, kv + (k -> v))
      case other => Left(s"cannot parse arguments ${other.mkString(" ")}")
    }
    go(argv, Map.empty).flatMap { kv =>
      val known = Set("--workload", "--seed", "--seconds", "--trace")
      (kv.keySet -- known).headOption match {
        case Some(k) => Left(s"unknown option $k")
        case None =>
          scala.util.Try(Args(
            kv.getOrElse("--workload", ""),
            kv.getOrElse("--seed", "1").toLong,
            kv.getOrElse("--seconds", "8").toInt,
            kv.getOrElse("--trace", "0") == "1",
          )).toEither.left.map(e => s"bad argument: ${e.getMessage}")
      }
    }
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toSeq) match {
      case Right(a) => a
      case Left(err) => System.err.println(s"$err\n$usage"); sys.exit(2)
    }
    val broken = SelfTest.failures()
    if (broken.nonEmpty) {
      System.err.println(s"checker self-test failed on: ${broken.mkString("; ")}")
      sys.exit(1)
    }
    val wl = Workloads.byName(args.workload).getOrElse {
      System.err.println(s"unknown workload '${args.workload}'\n$usage"); sys.exit(2)
    }
    val code =
      try new Bench(wl, args).run()
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }
}

/** Counts the Spark jobs, tasks and shuffle bytes of the calls it watches. */
final class SparkCounter extends SparkListener {
  @volatile var jobs = 0L
  @volatile var tasks = 0L
  @volatile var shuffleBytes = 0L
  override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
  }
}

final class Bench(wl: Workload, args: Main.Args) {

  private val RepeatS = 0.5
  private val WarmSolveS = 0.5
  private val MinRounds = 2
  private val MaxReps = 100
  private val Batch = 100
  private val partCfg = SmartPartition.Config(Batch)
  private val solverCfg = ExplainSolver.Config(timeLimitMs = wl.exactBudgetMs)
  private val trace = new Trace(args.trace)
  private val root = Paths.get("").toAbsolutePath

  private var attempted = 0L
  private var failed = 0L
  private val violations = mutable.ArrayBuffer.empty[String]
  private val firstMatches = mutable.Map.empty[String, Vector[TupleMatch]]

  private final case class Explained(pp: PreparedPair, part: Solution, summary: Summary,
      targets: Seq[Map[String, String]], others: Seq[Map[String, String]], seconds: Double,
      heapMb: Option[Double])

  private final case class PairRound(explainS: Double, partS: Double, exactS: Double,
      explF1: Double, evidF1: Double, heapMb: Option[Double])

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def gcMs(): Double = {
    var ms = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => ms += math.max(0L, b.getCollectionTime))
    ms.toDouble
  }

  private def heapAfterGcMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def session(): SparkSession = {
    val threads = math.min(4, Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("explain3d-perfbench")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", root.resolve(".bench_build/spark-local").toString)
      .config("spark.sql.warehouse.dir", root.resolve(".bench_build/spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Fastest wall time of `f` over repetitions adding up to `totalS`.
    * Min-of-N rather than the median: a solve of a few milliseconds spawns
    * one thread per component, and its median moved fivefold between runs
    * on a loaded host.
    */
  private def repeated[A](f: => A, totalS: Double = RepeatS): (Double, A, Int) = {
    val times = mutable.ArrayBuffer.empty[Double]
    var last: Option[A] = None
    while (times.isEmpty || (times.sum < totalS && times.size < MaxReps)) {
      val t0 = System.nanoTime()
      last = Some(f)
      times += secondsSince(t0)
    }
    (times.min, last.get, times.size)
  }

  /** One explanation of a pair, timed from its lazy query DataFrames to the
    * summary. The heap probe, when asked for, is taken after stage 2 and
    * excluded from the time.
    */
  private def explain(p: PairSpec, counter: Option[SparkCounter], measureHeap: Boolean): Explained =
    trace.span("explain") {
      val t0 = System.nanoTime()
      val before = counter.map(c => (c.jobs, c.tasks, c.shuffleBytes))
      val pp = trace.timed("prepare") {
        Pipeline.prepare(p.left, p.right, p.attrs, p.phi, simFloor = p.simFloor)
      }
      for (c <- counter; (j, t, b) <- before) {
        PerfbenchListenerBus.drain(p.left.sparkSession.sparkContext)
        trace.add("prepare.spark_jobs", (c.jobs - j).toDouble)
        trace.add("prepare.spark_tasks", (c.tasks - t).toDouble)
        trace.add("prepare.shuffle_mb", (c.shuffleBytes - b) / (1024.0 * 1024.0))
      }
      val part = trace.span("partitioned_solve") {
        SmartPartition.solve(pp.inst, partCfg, solverCfg)
      }
      val heapStart = System.nanoTime()
      val heap = if (measureHeap) Some(heapAfterGcMb()) else None
      val paused = System.nanoTime() - heapStart
      val (summary, targets, others) = trace.timed("summarize") {
        val ids = part.explanations.explanationTupleIds
        val (tg, ot) = (pp.inst.t1 ++ pp.inst.t2).partition(t => ids(t.id))
        val (targets, others) = (tg.map(_.attrs), ot.map(_.attrs))
        (Summarize.summarize(targets, others), targets, others)
      }
      Explained(pp, part, summary, targets, others, (System.nanoTime() - t0 - paused) / 1e9, heap)
    }

  private def release(pp: PreparedPair): Unit = {
    // prepare caches its cid-numbered relations; drop them so the next
    // explanation of the pair does the full work again.
    pp.leftCanon.unpersist(blocking = true)
    pp.rightCanon.unpersist(blocking = true)
  }

  private def fail(what: String, vs: Seq[String]): Unit = {
    failed += 1
    violations ++= vs.map(v => s"$what: $v")
  }

  private def runPair(p: PairSpec, round: Int, counter: Option[SparkCounter]): PairRound = {
    trace.pair = p.name
    trace.round = round
    val gc0 = gcMs()
    val ex = explain(p, counter, measureHeap = round == 1)
    val inst = ex.pp.inst
    val (partS, _, _) = trace.span("partitioned_solve_repeated") {
      repeated(SmartPartition.solve(inst, partCfg, solverCfg))
    }
    val gcExact0 = gcMs()
    val (exactS, exact, reps) = trace.span("exact_solve") { repeated(ExplainSolver.solve(inst, solverCfg)) }
    val gcExact = (gcMs() - gcExact0) / reps

    // ---- checks, outside every timed region
    val blocking = firstMatches.get(p.name) match {
      case None =>
        firstMatches(p.name) = inst.matches
        Checks.blocking(inst, p.attrs, p.simFloor)
      case Some(m) => if (m == inst.matches) Nil else Seq("M_tuple changed between rounds")
    }
    val sums = p.sideSums.toSeq.flatMap { case (s1, s2) =>
      Seq((1, inst.t1, s1), (2, inst.t2, s2)).collect {
        case (side, ts, want) if math.abs(ts.map(_.impact).sum - want) > Checks.Tol =>
          s"Σ I of side $side is ${ts.map(_.impact).sum}, the generated SUM(val) is $want"
      }
    }
    val e = ex.part.explanations
    val explF1 = Metrics.prf(Metrics.explanationItems(e, ex.pp.keyOf), ex.pp.gold.explanations).f1
    val evidF1 = Metrics.prf(Metrics.evidenceItems(e, ex.pp.keyOf), ex.pp.gold.evidence).f1
    val (explFloor, evidFloor) = wl.floors
    val f1 =
      if (explF1 >= explFloor && evidF1 >= evidFloor) Nil
      else Seq(f"F1 explanation $explF1%.4f / evidence $evidF1%.4f below the floors $explFloor / $evidFloor")

    val explainViolations = Checks.completeness(inst, ex.part.explanations) ++
      Checks.objective(inst, ex.part) ++ blocking ++ sums ++
      Checks.summary(ex.targets, ex.others, ex.summary) ++ f1
    val exactViolations = Checks.completeness(inst, exact.explanations) ++
      Checks.objective(inst, exact) ++ Checks.dominance(exact, ex.part, Checks.trivialLogProb(inst))
    attempted += 2
    // A failed check is a failed operation and makes the run incorrect; an
    // unproved solve (a budget cut) is a failed operation only.
    if (explainViolations.nonEmpty) fail(s"${p.name} explanation", explainViolations)
    else if (!ex.part.proved) failed += 1
    if (exactViolations.nonEmpty) fail(s"${p.name} exact solve", exactViolations)
    else if (!exact.proved) failed += 1

    release(ex.pp)
    if (trace.enabled) {
      probeLayers(p, ex)
      trace.add("exact_solve.ms", exactS * 1000)
      trace.add("exact_solve.proved", if (exact.proved) 1 else 0)
      trace.add("exact_solve.gc_ms", gcExact)
      if (exact.proved) trace.add("partition.objective_gap", exact.logProb - ex.part.logProb)
      trace.add("summarize.targets", ex.targets.size.toDouble)
      trace.add("summarize.patterns", ex.summary.patterns.size.toDouble)
      trace.add("summarize.size", ex.summary.size.toDouble)
      trace.add("explain_s", ex.seconds)
    }
    if (round == 1)
      System.err.println(f"[perfbench] ${p.name}: |T|=${inst.t1.size}/${inst.t2.size} " +
        f"|M_tuple|=${inst.matches.size} |E|=${e.delta.size + e.values.size} |M*|=${e.evidence.size} " +
        f"|E_S|=${ex.summary.size} logPr exact=${exact.logProb}%.3f (proved=${exact.proved}) " +
        f"partitioned=${ex.part.logProb}%.3f (proved=${ex.part.proved}) explF1=$explF1%.4f evidF1=$evidF1%.4f " +
        f"explain=${ex.seconds}%.3fs exact=${exactS}%.4fs partitioned=${partS}%.4fs")
    trace.add("jvm.gc_ms", gcMs() - gc0)
    PairRound(ex.seconds, partS, exactS, explF1, evidF1, ex.heapMb)
  }

  /** Traced mode only: calls each stage-1 layer on its own, and the stage-2
    * partitioning steps one by one, recording time and sizes per layer.
    */
  private def probeLayers(p: PairSpec, ex: Explained): Unit = trace.span("layers") {
    val attrNames = p.attrs.map(_.name)
    // Each layer's input is cached and counted in the span before it, so
    // a span times only its own layer.
    val (left, right) = trace.timed("canonicalize") {
      val (l, r) = (p.left.cache(), p.right.cache())
      trace.add("canonicalize.rows", (l.count() + r.count()).toDouble)
      (l, r)
    }
    val (lc, rc) = trace.timed("withcid") {
      val l = Pipeline.withCid(left, attrNames).cache()
      val r = Pipeline.withCid(right, attrNames).cache()
      l.count(); r.count()
      (l, r)
    }
    val sims = trace.timed("similarity") {
      val s = Similarity.candidatePairs(lc, rc, p.attrs).cache()
      trace.add("similarity.pairs", s.count().toDouble)
      s
    }
    trace.timed("calibration") {
      val kept = if (p.simFloor > 0.0) sims.filter(col("sim") >= p.simFloor) else sims
      val probs = Calibration.calibrate(kept, goldEvidence(lc, rc)).cache()
      trace.add("calibration.pairs_at_floor", probs.filter(col("p") <= Calibration.Eps).count().toDouble)
      probs.unpersist(blocking = true)
    }
    trace.timed("gold") { Gold.derive(lc, rc, attrNames, p.phi) }
    Seq(left, right, lc, rc, sims).foreach(_.unpersist(blocking = true))

    val inst = ex.pp.inst
    trace.add("prepare.collected_rows", (inst.t1.size + inst.t2.size + inst.matches.size).toDouble)
    val compSizes = componentSizes(inst)
    trace.add("components.count", compSizes.size.toDouble)
    trace.add("components.max_tuples", compSizes.maxOption.getOrElse(0).toDouble)
    val coarse = trace.timed("prepartition") { PrePartition.run(inst, partCfg.pre) }
    trace.add("prepartition.coarse_nodes", coarse.nodes.size.toDouble)
    val k = math.max(1, math.ceil((inst.t1.size + inst.t2.size).toDouble / Batch).toInt)
    val assign = trace.timed("partitioner") { Partitioner.partition(coarse, k, Batch) }
    trace.add("partitioner.parts", assign.distinct.length.toDouble)
    trace.add("partitioner.cut_matches",
      inst.matches.count(m => assign(coarse.nodeOf(m.left)) != assign(coarse.nodeOf(m.right))).toDouble)
    val subs = SmartPartition.split(inst, partCfg).subInstances
    trace.timed("subsolve") { subs.foreach(sub => ExplainSolver.solve(sub, solverCfg)) }
    trace.add("subsolve.max_tuples", subs.map(s => s.t1.size + s.t2.size).maxOption.getOrElse(0).toDouble)
  }

  /** The labelled true matches `prepare` hands to calibration. */
  private def goldEvidence(lc: DataFrame, rc: DataFrame): DataFrame =
    lc.filter(col("uid").isNotNull).select(col("cid").as("lid"), col("uid").as("l_uid"))
      .join(rc.filter(col("uid").isNotNull).select(col("cid").as("rid"), col("uid").as("r_uid")),
        col("l_uid") === col("r_uid"))
      .select("lid", "rid")

  /** Sizes (in tuples) of the connected components of the candidate graph
    * that hold at least one match.
    */
  private def componentSizes(inst: Instance): Seq[Int] = {
    val uf = new Scoring.UnionFind(inst.tupleById.keys)
    inst.matches.foreach(m => uf.union(m.left, m.right))
    val matched = inst.matches.iterator.map(m => uf.find(m.left)).toSet
    inst.tupleById.keys.groupBy(uf.find).collect { case (r, members) if matched(r) => members.size }.toSeq
  }

  def run(): Int = {
    val t0 = System.nanoTime()
    val spark = session()
    val counter = if (trace.enabled) {
      val c = new SparkCounter
      spark.sparkContext.addSparkListener(c)
      Some(c)
    } else None
    try {
      val sessionS = secondsSince(t0)
      val g0 = System.nanoTime()
      val pairs = wl.generate(spark, args.seed)
      val genS = secondsSince(g0)
      val w0 = System.nanoTime()
      trace.span("warmup") {
        pairs.foreach { p =>
          trace.pair = p.name
          val pp = explain(p, None, measureHeap = false).pp
          repeated(SmartPartition.solve(pp.inst, partCfg, solverCfg), WarmSolveS)
          repeated(ExplainSolver.solve(pp.inst, solverCfg), WarmSolveS)
          release(pp)
        }
      }
      val warmS = secondsSince(w0)
      val setupS = secondsSince(t0)
      System.err.println(f"[perfbench] ${wl.name} seed=${args.seed}: session $sessionS%.2fs, " +
        f"generation $genS%.2fs, warm-up $warmS%.2fs")

      val results = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[PairRound]]
      val m0 = System.nanoTime()
      var round = 0
      while (round < MinRounds || secondsSince(m0) < args.seconds) {
        round += 1
        val r0 = System.nanoTime()
        trace.round = round
        trace.span("round") {
          pairs.foreach(p => results.getOrElseUpdate(p.name, mutable.ArrayBuffer.empty) += runPair(p, round, counter))
        }
        val rs = results.values.map(_.last).toSeq
        System.err.println(f"[perfbench] round $round: ${secondsSince(r0)}%.2fs, explanations " +
          rs.map(r => f"${r.explainS}%.2f").mkString(" ") + ", exact solves " +
          rs.map(r => f"${r.exactS}%.4f").mkString(" ") + ", partitioned solves " +
          rs.map(r => f"${r.partS}%.4f").mkString(" "))
      }
      System.err.println(f"[perfbench] $round round(s) in ${secondsSince(m0)}%.2fs")

      // Per pair, the fastest round: a burst of load from other tenants on
      // the host slows single rounds, not the program.
      def perPair(f: PairRound => Double): Seq[Double] = results.values.map(rs => rs.map(f).min).toSeq
      val explainTimes = perPair(_.explainS)
      val e2e = ListMap(
        "setup_s" -> (setupS, "s"),
        "explain_s" -> (Stats.median(explainTimes), "s"),
        "explain_total_s" -> (explainTimes.sum, "s"),
        "exact_solve_s" -> (perPair(_.exactS).sum, "s"),
        "partitioned_solve_s" -> (perPair(_.partS).sum, "s"),
        "expl_f1" -> (perPair(_.explF1).sum / results.size, "ratio"),
        "evid_f1" -> (perPair(_.evidF1).sum / results.size, "ratio"),
        "driver_heap_mb" -> (results.values.flatMap(_.flatMap(_.heapMb)).max, "MB"),
      )
      val metrics =
        if (!trace.enabled) e2e
        else {
          val body = trace.toJson(Map("workload" -> wl.name, "seed" -> args.seed,
            "explain_s_traced" -> Stats.median(explainTimes)))
          val dir = root.resolve(".bench_build/traces")
          Files.createDirectories(dir)
          Files.writeString(dir.resolve(s"${wl.name}-seed${args.seed}.json"), body)
          System.err.println(f"[perfbench] traced explain_s ${Stats.median(explainTimes)}%.4f; spans in $dir")
          ListMap.from(Bench.perLayer.map { case (m, unit) => m -> (trace.aggregate(m), unit) })
        }
      violations.take(20).foreach(v => System.err.println(s"[perfbench] CHECK FAILED $v"))
      val report = ListMap(
        "correct" -> violations.isEmpty,
        "attempted" -> attempted,
        "failed" -> failed,
        "metrics" -> metrics.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) },
      )
      println(Json.write(report))
      0
    } finally spark.stop()
  }
}

object Bench {
  /** Per-layer metrics of the traced run, with units. */
  val perLayer: Seq[(String, String)] = Seq(
    "canonicalize.ms" -> "ms", "canonicalize.rows" -> "count",
    "withcid.ms" -> "ms",
    "similarity.ms" -> "ms", "similarity.pairs" -> "count",
    "calibration.ms" -> "ms", "calibration.pairs_at_floor" -> "count",
    "gold.ms" -> "ms",
    "prepare.ms" -> "ms", "prepare.collected_rows" -> "count", "prepare.spark_jobs" -> "count",
    "prepare.spark_tasks" -> "count", "prepare.shuffle_mb" -> "MB",
    "components.count" -> "count", "components.max_tuples" -> "count",
    "exact_solve.ms" -> "ms", "exact_solve.proved" -> "count", "exact_solve.gc_ms" -> "ms",
    "prepartition.ms" -> "ms", "prepartition.coarse_nodes" -> "count",
    "partitioner.ms" -> "ms", "partitioner.parts" -> "count", "partitioner.cut_matches" -> "count",
    "subsolve.ms" -> "ms", "subsolve.max_tuples" -> "count",
    "partition.objective_gap" -> "nat",
    "summarize.ms" -> "ms", "summarize.targets" -> "count", "summarize.patterns" -> "count",
    "summarize.size" -> "count",
    "jvm.gc_ms" -> "ms",
  )
}
