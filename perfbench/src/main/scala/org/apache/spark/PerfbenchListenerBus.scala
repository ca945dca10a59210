package org.apache.spark

/** Lets the benchmark's traced mode wait until Spark has delivered every
  * listener event of a finished call, so its job, task and shuffle counts
  * are complete when read. The listener bus is only reachable from inside
  * the `org.apache.spark` package.
  */
object PerfbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
