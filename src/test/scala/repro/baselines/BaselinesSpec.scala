package repro.baselines

import java.io.File
import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import java.security.MessageDigest

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.SparkSpec
import repro.bench.Stores
import repro.data.TimeSeriesGen

class Lz4BlockSpec extends AnyFunSuite {

  test("roundtrip on random payloads") {
    val rng = new Random(1)
    Seq(0, 1, 100, 64 * 1024, 200 * 1024).foreach { n =>
      val raw = Array.fill(n)(rng.nextInt().toByte)
      assert(Lz4Block.decompress(Lz4Block.compress(raw)).toSeq == raw.toSeq, s"size $n")
    }
  }

  test("compressible payloads shrink") {
    val raw = Array.fill(100 * 1024)(7.toByte)
    assert(Lz4Block.compress(raw).length < raw.length / 10)
  }

  test("incompressible payloads do not explode") {
    val rng = new Random(2)
    val raw = Array.fill(100 * 1024)(rng.nextInt().toByte)
    assert(Lz4Block.compress(raw).length < raw.length * 1.1)
  }

  test("custom chunk size roundtrips") {
    val rng = new Random(3)
    val raw = Array.fill(10000)(rng.nextInt().toByte)
    assert(Lz4Block.decompress(Lz4Block.compress(raw, chunk = 1024)).toSeq == raw.toSeq)
  }
}

class CassandraSimSpec extends SparkSpec {

  private lazy val ds = TimeSeriesGen.epLike(spark, sf = 0.0005, gapProb = 0.01)

  test("write + read roundtrip preserves every point") {
    val path = Stores.tmpDir("cas")
    val bytes = CassandraSim.write(ds.points, path)
    assert(bytes > 0 && bytes == CassandraSim.storeBytes(path))
    val back = CassandraSim.read(spark, path)
    assert(back.count() == ds.pointCount)
    val a = ds.points.orderBy("tid", "ts").collect().map(r => (r.getInt(0), r.getLong(1), r.getFloat(2)))
    val b = back.orderBy("tid", "ts").collect().map(r => (r.getInt(0), r.getLong(1), r.getFloat(2)))
    assert(a.toSeq == b.toSeq)
  }

  test("LZ4 row store beats raw CSV but loses to columnar encodings") {
    val path  = Stores.tmpDir("cas2")
    val bytes = CassandraSim.write(ds.points, path)
    val rawBytes = ds.pointCount * 16
    assert(bytes < rawBytes, "LZ4 must compress the row store somewhat")
  }

  test("partition-key pruning by tid (one file per partition)") {
    val path = Stores.tmpDir("cas3")
    CassandraSim.write(ds.points, path)
    assert(CassandraSim.listFiles(path).length == ds.series.length)
    val one = CassandraSim.read(spark, path, tids = Some(Seq(3)))
    assert(one.select("tid").distinct().collect().map(_.getInt(0)).toSeq == Seq(3))
    assert(one.count() == ds.points.filter(col("tid") === 3).count())
  }
}

class InfluxSimSpec extends SparkSpec {

  private lazy val ds = TimeSeriesGen.epLike(spark, sf = 0.0005, gapProb = 0.01)

  test("encode/decode one series") {
    val pts = (0 until 2500).map(i => (i.toLong * 60000, (100.0f + (i % 7))))
    assert(InfluxSim.decodeSeries(InfluxSim.encodeSeries(pts)) == pts)
  }

  test("irregular timestamps (gaps) roundtrip") {
    val rng = new Random(5)
    val pts = (0 until 1000).filter(_ => rng.nextDouble() > 0.2)
      .map(i => (i.toLong * 1000, rng.nextFloat() * 100)).toIndexedSeq
    assert(InfluxSim.decodeSeries(InfluxSim.encodeSeries(pts)) == pts)
  }

  test("write + read roundtrip over Spark") {
    val path = Stores.tmpDir("tsm")
    val bytes = InfluxSim.write(ds.points, path)
    assert(bytes > 0)
    assert(InfluxSim.listFiles(path).length == ds.series.length)
    val back = InfluxSim.read(spark, path)
    assert(back.count() == ds.pointCount)
    val a = ds.points.agg(sum(col("value").cast("double"))).head().getDouble(0)
    val b = back.agg(sum(col("value").cast("double"))).head().getDouble(0)
    assert(a == b)
  }

  test("tid pruning reads only the named series' files") {
    val path = Stores.tmpDir("tsm2")
    InfluxSim.write(ds.points, path)
    val two = InfluxSim.read(spark, path, tids = Some(Seq(1, 5)))
    assert(two.select("tid").distinct().collect().map(_.getInt(0)).sorted.toSeq == Seq(1, 5))
    val expected = ds.points.filter(col("tid").isin(1, 5)).count()
    assert(two.count() == expected)
  }

  test("delta-of-delta + Gorilla beats the raw 12 bytes/point on regular series") {
    val pts  = (0 until 5000).map(i => (i.toLong * 60000, 250.0f))
    val enc  = InfluxSim.encodeSeries(pts)
    assert(enc.length < pts.length * 2, s"${enc.length} bytes for ${pts.length} points")
  }
}

class FormatBaselinesSpec extends SparkSpec {

  private lazy val ds = TimeSeriesGen.epLike(spark, sf = 0.0005, gapProb = 0.01)

  test("parquet roundtrip and size accounting") {
    val path  = Stores.tmpDir("pq") + "/data"
    val bytes = FormatBaselines.Parquet.write(ds.points, path)
    assert(bytes > 0)
    val back = FormatBaselines.Parquet.read(spark, path)
    assert(back.count() == ds.pointCount)
  }

  test("orc roundtrip") {
    val path  = Stores.tmpDir("orc") + "/data"
    val bytes = FormatBaselines.Orc.write(ds.points, path)
    assert(bytes > 0)
    assert(FormatBaselines.Orc.read(spark, path).count() == ds.pointCount)
  }

  test("columnar formats compress below raw size") {
    val path = Stores.tmpDir("pq2") + "/data"
    val bytes = FormatBaselines.Parquet.write(ds.points, path)
    assert(bytes < ds.pointCount * 16)
  }
}

/** The four industry baselines through the path the experiments build and
  * query them by. Each per-series store's files are pinned by a SHA-256 over
  * the sorted (file name, bytes) pairs, so a refactor of the baselines
  * cannot change what E1–E8 measure.
  */
class RawStoreSpec extends SparkSpec {

  private lazy val ds   = TimeSeriesGen.epLike(spark, sf = 0.0005, gapProb = 0.01)
  private lazy val flat = Stores.flatCatalog(ds)

  private def filesDigest(path: String): String = {
    val md = MessageDigest.getInstance("SHA-256")
    new File(path).listFiles().sortBy(_.getName).foreach { f =>
      val bytes = Files.readAllBytes(f.toPath)
      md.update(f.getName.getBytes(UTF_8))
      md.update(ByteBuffer.allocate(8).putLong(bytes.length.toLong).array())
      md.update(bytes)
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def sortedRows(df: DataFrame, columns: Seq[String]) =
    df.select(columns.map(col): _*).orderBy("tid", "ts").collect().toSeq

  test("Cassandra- and InfluxDB-like files are pinned") {
    val digests = Seq(CassandraSim, InfluxSim).map { store =>
      val (raw, _) = Stores.buildRaw(ds, flat, store)
      assert(raw.bytes == new File(raw.path).listFiles().map(_.length()).sum)
      raw.name -> filesDigest(raw.path)
    }
    assert(digests == Seq(
      "Cassandra(sim)" -> "37e407e2f8db9c1883125dd389dbf46fe02d9d0e37c01545ae3d760fdd28ca16",
      "InfluxDB(sim)"  -> "4097803bfc26ba118452cad38a054fdc2d347730c5dca82597f3a84e11d833a1"))
  }

  test("Parquet and ORC read back the input points and their dimension columns") {
    val input   = Stores.withDims(ds.points, flat)
    val columns = input.columns.toSeq
    assert(columns.length == 3 + flat.dimColumns.length)
    val expected = sortedRows(input, columns)
    Seq(FormatBaselines.Parquet, FormatBaselines.Orc).foreach { store =>
      val (raw, _) = Stores.buildRaw(ds, flat, store)
      assert(sortedRows(raw.points(spark), columns) == expected, raw.name)
    }
  }
}

class ValueGroupingSpec extends SparkSpec {

  test("series with equal min/max group together") {
    import spark.implicits._
    // tids 1,2 share range [0,10]; tid 3 is far away
    val pts = Seq(
      (1, 0L, 0.0f), (1, 100L, 10.0f),
      (2, 0L, 0.0f), (2, 100L, 10.0f),
      (3, 0L, 500.0f), (3, 100L, 800.0f),
    ).toDF("tid", "ts", "value")
    val groups = ValueGrouping.group(pts)
    assert(groups.map(_.tids.toSet).toSet == Set(Set(1, 2), Set(3)))
  }

  test("quantum coarsens equivalence") {
    import spark.implicits._
    val pts = Seq(
      (1, 0L, 0.0f), (1, 100L, 10.0f),
      (2, 0L, 0.4f), (2, 100L, 10.4f),
    ).toDF("tid", "ts", "value")
    assert(ValueGrouping.group(pts, quantum = 1.0).length == 1)
    assert(ValueGrouping.group(pts, quantum = 0.1).length == 2)
  }

  test("groups above 64 are split for the Gaps bitmask") {
    import spark.implicits._
    val pts = (1 to 150).flatMap(t => Seq((t, 0L, 1.0f), (t, 100L, 2.0f))).toDF("tid", "ts", "value")
    val groups = ValueGrouping.group(pts)
    assert(groups.forall(_.tids.length <= 64))
    assert(groups.map(_.tids.length).sum == 150)
  }

  test("clusters of the generator are rediscovered by value equality on identical members") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.0005, gapProb = 0.0)
    val groups = ValueGrouping.group(ds.points)
    // at least the zero-offset members of each cluster share min/max
    assert(groups.exists(_.tids.length >= 2))
  }
}
