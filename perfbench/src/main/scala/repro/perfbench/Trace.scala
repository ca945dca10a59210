package repro.perfbench

import scala.collection.mutable

/** Spans and counters recorded around the benchmark's calls into the
  * program's layers. Everything stays in memory until the run ends; with
  * tracing off every call is a pass-through.
  *
  * A span has a name, start and end (ms since the trace began), the span
  * that encloses it, and the pair and round it belongs to. Counters are
  * keyed by (round, pair, metric) and summed when recorded twice.
  */
final class Trace(val enabled: Boolean) {

  final case class Span(id: Int, name: String, startMs: Double, endMs: Double, parent: Int,
      pair: String, round: Int)

  private val t0 = System.nanoTime()
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.LinkedHashMap.empty[(Int, String, String), Double]
  private var open: List[Int] = Nil
  private var nextId = 0

  /** The pair and round that new spans and counters are attributed to. */
  var pair = ""
  var round = 0

  private def nowMs: Double = (System.nanoTime() - t0) / 1e6

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      val start = nowMs
      open = id :: open
      try body
      finally {
        open = open.tail
        spans += Span(id, name, start, nowMs, parent, pair, round)
      }
    }

  /** A span whose duration is also added to the counter `<name>.ms`. */
  def timed[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val start = System.nanoTime()
      try span(name)(body)
      finally add(s"$name.ms", (System.nanoTime() - start) / 1e6)
    }

  def add(metric: String, value: Double): Unit =
    if (enabled) {
      val k = (round, pair, metric)
      counters(k) = counters.getOrElse(k, 0.0) + value
    }

  /** Per-round aggregate of a metric over pairs: the maximum for size
    * maxima, otherwise the sum; then the median over rounds.
    */
  def aggregate(metric: String): Double = {
    val byRound = counters.iterator
      .collect { case ((r, _, m), v) if m == metric && r > 0 => r -> v }
      .toSeq.groupBy(_._1).values
      .map(vs => if (metric.endsWith("max_tuples")) vs.map(_._2).max else vs.map(_._2).sum)
      .toSeq
    if (byRound.isEmpty) 0.0 else Stats.median(byRound)
  }

  def toJson(extra: Map[String, Any]): String = Json.write(extra ++ Map(
    "spans" -> spans.map(s => Map("id" -> s.id, "name" -> s.name, "start_ms" -> s.startMs,
      "end_ms" -> s.endMs, "parent" -> s.parent, "pair" -> s.pair, "round" -> s.round)),
    "counts" -> counters.toSeq.map { case ((r, p, m), v) =>
      Map("round" -> r, "pair" -> p, "metric" -> m, "value" -> v) },
  ))
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** Minimal JSON writer for the report and the trace file. */
object Json {
  def write(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => s"${quote(k.toString)}: ${write(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.iterator.map(write).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}
