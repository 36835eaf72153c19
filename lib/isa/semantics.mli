(** Concrete evaluation of uop opcodes over 32-bit values. *)

val eval : Opcode.t -> Value.t list -> Value.t option
(** [eval op srcs] computes the result value of [op] applied to the source
    values [srcs], or [None] when the result does not follow from register
    sources alone (loads, stores, branches, floating point, nop). [Cmp]
    evaluates like [Sub]: its "result" is the value whose narrowness
    determines the flags producer's width, which is what the BR policy
    cares about. Missing sources also yield [None]. *)

val eval2 : Opcode.t -> Value.t -> Value.t -> Value.t
(** [eval2 op a b] is [eval op [a; b]] without the list or the option,
    for opcodes [eval] computes; unary opcodes ([Mov], [Copy]) ignore
    [b]. Sources beyond the second never reach [eval]'s result, so this
    is also [eval op (a :: b :: rest)].
    @raise Invalid_argument for opcodes [eval] has no result for. *)
