package repro.bench

import java.nio.file.Files
import java.security.MessageDigest

import repro.SparkSpec
import repro.core.storage.{SegmentCodec, SegmentSource}
import repro.data.TimeSeriesGen

/** The stored output of two fixed ingests, to check that a change leaves the
  * bytes of a store as they were: run `sbt storeDigest` on both trees and
  * compare the `[storeDigest]` lines. Per store it prints the number of
  * files, segments and bytes, then the sorted SHA-256s of the `.sgmt` files'
  * contents; file names are random, so they are not printed.
  */
class StoreDigest extends SparkSpec {

  private val Seed = 7L

  /** Ingest `ds` into the paper's best manual grouping (+GB) at `eps` and
    * print its digest.
    */
  private def digest(label: String, ds: TimeSeriesGen.Dataset, eps: Double): Unit = {
    val (name, clauses, golemm) = Stores.mdbVariants(ds.name, eps).head
    val (mdb, _) = Stores.buildMdb(spark, ds, name, clauses, golemm)
    val files    = SegmentSource.listFiles(mdb.cfg.storePath).map(f => Files.readAllBytes(f.toPath))
    val segments = files.map(SegmentCodec.stats(_).rows.toLong).sum
    println(s"[storeDigest] $label $name: files=${files.length} segments=$segments " +
            s"bytes=${files.map(_.length.toLong).sum}")
    files.map(MessageDigest.getInstance("SHA-256").digest(_).map("%02x".format(_)).mkString)
      .sorted.foreach(sha => println(s"[storeDigest] $label $sha"))
  }

  test("EP-like SF 0.03, eps=10, +GB") {
    digest("EP-like sf=0.03 eps=10", TimeSeriesGen.epLike(spark, sf = 0.03, seed = Seed), 10.0)
  }

  test("EF-like SF 0.005 x 4 replicas, eps=0, +GB") {
    val ef = TimeSeriesGen.efLike(spark, sf = 0.005, seed = Seed)
    digest("EF-like sf=0.005x4 eps=0", Experiments.duplicate(spark, ef, 4), 0.0)
  }
}
