package repro.core.model

/** Gorilla's lossless XOR float compression [Pelkonen et al., PVLDB'15],
  * extended to groups (paper Section V): the values of all active series are
  * chained in *time-ordered blocks* — tick-major order (t0·s0, t0·s1, …,
  * t1·s0, …) — so both the temporal correlation within a series and the
  * correlation across the group's series are exploited: consecutive values in
  * the chain are close, their XOR has few meaningful bits.
  *
  * Encoding per value (32-bit floats, ModelarDB's value type):
  *  - first value: 32 raw bits;
  *  - XOR == 0: a single '0' bit;
  *  - control '10': the meaningful bits fit the previous window — write them;
  *  - control '11': 5 bits leading-zero count, 5 bits (meaningful length − 1),
  *    then the meaningful bits (new window).
  *
  * Lossless types are bounded by a segment length limit rather than ε
  * (paper Section III-B). GOLEMM tries Gorilla on most windows but emits it
  * for few, so the fitter only counts: an append advances the XOR window
  * state and an exact bit count (`bytes == serialize().length` after every
  * tick) and keeps the accepted values, which [[ModelFitter.serialize]]
  * bit-encodes once, for the model that is emitted.
  */
object Gorilla extends ModelType {
  override val mid      = 3
  override val name     = "Gorilla"
  override val lossless = true

  override def newFitter(nSeries: Int, epsilonPct: Double, lengthBound: Int): ModelFitter =
    new Fitter(nSeries, lengthBound)

  /** The encoder's state along the chain of values: the previous value's
    * bits and the window of meaningful bits the next XOR may reuse.
    */
  private final class Chain {
    private var prev         = 0
    private var prevLeading  = -1
    private var prevTrailing = -1
    private var first        = true

    /** The number of bits that encode `v` next in the chain; they are
      * written to `w` unless it is null.
      */
    def put(v: Float, w: BitWriter): Int = {
      val bits = java.lang.Float.floatToRawIntBits(v)
      val n =
        if (first) {
          first = false
          if (w != null) w.writeBits(bits.toLong & 0xFFFFFFFFL, 32)
          32
        } else {
          val xor = bits ^ prev
          if (xor == 0) {
            if (w != null) w.writeBit(false)
            1
          } else {
            val leading  = math.min(java.lang.Integer.numberOfLeadingZeros(xor), 31)
            val trailing = java.lang.Integer.numberOfTrailingZeros(xor)
            if (prevLeading >= 0 && leading >= prevLeading && trailing >= prevTrailing) {
              val meaningful = 32 - prevLeading - prevTrailing
              if (w != null) {
                w.writeBits(2L, 2) // control '10'
                w.writeBits((xor >>> prevTrailing).toLong, meaningful)
              }
              2 + meaningful
            } else {
              val meaningful = 32 - leading - trailing
              if (w != null) {
                w.writeBits(3L, 2) // control '11'
                w.writeBits(leading.toLong, 5)
                w.writeBits((meaningful - 1).toLong, 5)
                w.writeBits((xor >>> trailing).toLong, meaningful)
              }
              prevLeading = leading; prevTrailing = trailing
              12 + meaningful
            }
          }
        }
      prev = bits
      n
    }
  }

  private final class Fitter(nSeries: Int, lengthBound: Int) extends ModelFitter {
    private val chain    = new Chain
    private val accepted = new Array[Float](lengthBound * nSeries)
    private var ticks    = 0
    private var bits     = 0L

    override def append(values: Array[Float], offset: Int): Boolean = {
      if (ticks >= lengthBound) return false
      val at = ticks * nSeries
      var i = 0
      while (i < nSeries) {
        val v = values(offset + i)
        accepted(at + i) = v
        bits += chain.put(v, null)
        i += 1
      }
      ticks += 1
      true
    }

    override def length: Int = ticks
    override def bytes: Int  = ((bits + 7) / 8).toInt

    override def serialize(): Array[Byte] = {
      require(ticks > 0, "cannot serialize an empty Gorilla model")
      val writer = new BitWriter(bytes)
      val encode = new Chain
      var i = 0
      while (i < ticks * nSeries) { encode.put(accepted(i), writer); i += 1 }
      writer.toBytes
    }
  }

  override def decode(params: Array[Byte], nSeries: Int, length: Int): Array[Float] = {
    val reader = new BitReader(params)
    val out    = new Array[Float](length * nSeries)
    var prev         = 0
    var prevLeading  = 0
    var prevTrailing = 0
    var i = 0
    val n = length * nSeries
    while (i < n) {
      val bits =
        if (i == 0) reader.readBits(32).toInt
        else if (!reader.readBit()) prev
        else if (!reader.readBit()) {
          val meaningful = 32 - prevLeading - prevTrailing
          prev ^ (reader.readBits(meaningful).toInt << prevTrailing)
        } else {
          val leading    = reader.readBits(5).toInt
          val meaningful = reader.readBits(5).toInt + 1
          val trailing   = 32 - leading - meaningful
          prevLeading = leading; prevTrailing = trailing
          prev ^ (reader.readBits(meaningful).toInt << trailing)
        }
      out(i) = java.lang.Float.intBitsToFloat(bits)
      prev = bits
      i += 1
    }
    out
  }
}

/** The fallback model type (paper Section III-A): raw 32-bit floats in
  * tick-major order. It always fits, so a segment is emitted even when no
  * real model type can represent the buffered window; like all lossless
  * types it is length-bounded.
  */
object Fallback extends ModelType {
  override val mid      = 0
  override val name     = "Fallback"
  override val lossless = true

  override def newFitter(nSeries: Int, epsilonPct: Double, lengthBound: Int): ModelFitter =
    new Fitter(nSeries, lengthBound)

  private final class Fitter(nSeries: Int, lengthBound: Int) extends ModelFitter {
    private val buf   = java.nio.ByteBuffer.allocate(lengthBound * nSeries * 4)
    private var ticks = 0

    override def append(values: Array[Float], offset: Int): Boolean = {
      if (ticks >= lengthBound) return false
      var i = 0
      while (i < nSeries) { buf.putFloat(values(offset + i)); i += 1 }
      ticks += 1
      true
    }

    override def length: Int = ticks
    override def bytes: Int  = ticks * nSeries * 4
    override def serialize(): Array[Byte] =
      java.util.Arrays.copyOf(buf.array(), ticks * nSeries * 4)
  }

  override def decode(params: Array[Byte], nSeries: Int, length: Int): Array[Float] = {
    val bb  = java.nio.ByteBuffer.wrap(params)
    val out = new Array[Float](length * nSeries)
    var i = 0
    while (i < out.length) { out(i) = bb.getFloat; i += 1 }
    out
  }
}
