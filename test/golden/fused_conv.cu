// Generated by hidet-ocaml (task-mapping programming paradigm)
// mma_sync_MxNxK: warp-cooperative tensor-core tile multiply-accumulate.
// grid=13 block=32 stages=2
__global__ void __launch_bounds__(32) matmul_1x16x196x72_b32x16x8_w32x16_db(float* __restrict__ A_1, float* __restrict__ p0_im2col_k3x3s1p1x1_2, float* __restrict__ out_relu_3, float* __restrict__ e1_scale_shift_4, float* __restrict__ e2_scale_shift_5) {
  __shared__ float SmemA_6[2][32][8];
  __shared__ float SmemB_7[2][8][16];
  float RegsC_8[8][2];
  float RegsAF_9[8];
  float RegsBF_10[2];
  float RegsA_11[8][1];
  float RegsB_12[4][1];
  const int jn_13 = (blockIdx.x % 13);
  const int b_14 = (blockIdx.x / 13);
  const int col0_15 = (jn_13 * 16);
  const int w_16 = (threadIdx.x / 32);
  const int lane_17 = (threadIdx.x % 32);
  const int wm_18 = (w_16 * 32);
  #pragma unroll
  for (int r_19 = 0; r_19 < 8; ++r_19) {
    #pragma unroll
    for (int r_20 = 0; r_20 < 2; ++r_20) {
      RegsC_8[r_19][r_20] = 0.0f;
    }
  }
  // preload k-tile 0 into stage 0
  #pragma unroll
  for (int r_21 = 0; r_21 < 8; ++r_21) {
    SmemA_6[0][((r_21 * 4) + (((threadIdx.x % 32) / 8) % 4))][((threadIdx.x % 32) % 8)] = (((((r_21 * 4) + (((threadIdx.x % 32) / 8) % 4)) < 16) && (((threadIdx.x % 32) % 8) < 72)) ? A_1[((((r_21 * 4) + (((threadIdx.x % 32) / 8) % 4)) * 72) + ((threadIdx.x % 32) % 8))] : 0.0f);
  }
  #pragma unroll
  for (int r_22 = 0; r_22 < 4; ++r_22) {
    SmemB_7[0][((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2))][((threadIdx.x % 32) % 16)] = (((((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2)) < 72) && ((col0_15 + ((threadIdx.x % 32) % 16)) < 196)) ? ((((((((col0_15 + ((threadIdx.x % 32) % 16)) / 14) + ((((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2)) / 3) % 3)) - 1) >= 0) && (((((col0_15 + ((threadIdx.x % 32) % 16)) / 14) + ((((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2)) / 3) % 3)) - 1) < 14)) && ((((((col0_15 + ((threadIdx.x % 32) % 16)) % 14) + (((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2)) % 3)) - 1) >= 0) && (((((col0_15 + ((threadIdx.x % 32) % 16)) % 14) + (((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2)) % 3)) - 1) < 14))) ? p0_im2col_k3x3s1p1x1_2[((((((b_14 * 8) + (((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2)) / 9)) * 14) + ((((col0_15 + ((threadIdx.x % 32) % 16)) / 14) + ((((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2)) / 3) % 3)) - 1)) * 14) + ((((col0_15 + ((threadIdx.x % 32) % 16)) % 14) + (((r_22 * 2) + (((threadIdx.x % 32) / 16) % 2)) % 3)) - 1))] : 0.0f) : 0.0f);
  }
  __syncthreads();
  for (int kt_23 = 0; kt_23 < 9; ++kt_23) {
    // prefetch upcoming tile into registers
    if (((kt_23 + 1) < 9)) {
      #pragma unroll
      for (int r_24 = 0; r_24 < 8; ++r_24) {
        RegsA_11[r_24][0] = (((((r_24 * 4) + (((threadIdx.x % 32) / 8) % 4)) < 16) && ((((kt_23 + 1) * 8) + ((threadIdx.x % 32) % 8)) < 72)) ? A_1[((((r_24 * 4) + (((threadIdx.x % 32) / 8) % 4)) * 72) + (((kt_23 + 1) * 8) + ((threadIdx.x % 32) % 8)))] : 0.0f);
      }
      #pragma unroll
      for (int r_25 = 0; r_25 < 4; ++r_25) {
        RegsB_12[r_25][0] = ((((((kt_23 + 1) * 8) + ((r_25 * 2) + (((threadIdx.x % 32) / 16) % 2))) < 72) && ((col0_15 + ((threadIdx.x % 32) % 16)) < 196)) ? ((((((((col0_15 + ((threadIdx.x % 32) % 16)) / 14) + (((((kt_23 + 1) * 8) + ((r_25 * 2) + (((threadIdx.x % 32) / 16) % 2))) / 3) % 3)) - 1) >= 0) && (((((col0_15 + ((threadIdx.x % 32) % 16)) / 14) + (((((kt_23 + 1) * 8) + ((r_25 * 2) + (((threadIdx.x % 32) / 16) % 2))) / 3) % 3)) - 1) < 14)) && ((((((col0_15 + ((threadIdx.x % 32) % 16)) % 14) + ((((kt_23 + 1) * 8) + ((r_25 * 2) + (((threadIdx.x % 32) / 16) % 2))) % 3)) - 1) >= 0) && (((((col0_15 + ((threadIdx.x % 32) % 16)) % 14) + ((((kt_23 + 1) * 8) + ((r_25 * 2) + (((threadIdx.x % 32) / 16) % 2))) % 3)) - 1) < 14))) ? p0_im2col_k3x3s1p1x1_2[((((((b_14 * 8) + ((((kt_23 + 1) * 8) + ((r_25 * 2) + (((threadIdx.x % 32) / 16) % 2))) / 9)) * 14) + ((((col0_15 + ((threadIdx.x % 32) % 16)) / 14) + (((((kt_23 + 1) * 8) + ((r_25 * 2) + (((threadIdx.x % 32) / 16) % 2))) / 3) % 3)) - 1)) * 14) + ((((col0_15 + ((threadIdx.x % 32) % 16)) % 14) + ((((kt_23 + 1) * 8) + ((r_25 * 2) + (((threadIdx.x % 32) / 16) % 2))) % 3)) - 1))] : 0.0f) : 0.0f);
      }
    }
    // compute on current stage
    for (int kk_26 = 0; kk_26 < 8; ++kk_26) {
      #pragma unroll
      for (int r_27 = 0; r_27 < 8; ++r_27) {
        RegsAF_9[r_27] = SmemA_6[(kt_23 % 2)][(wm_18 + ((r_27 * 4) + ((lane_17 / 8) % 4)))][kk_26];
      }
      #pragma unroll
      for (int r_28 = 0; r_28 < 2; ++r_28) {
        RegsBF_10[r_28] = SmemB_7[(kt_23 % 2)][kk_26][((r_28 * 8) + (lane_17 % 8))];
      }
      #pragma unroll
      for (int r_29 = 0; r_29 < 8; ++r_29) {
        #pragma unroll
        for (int r_30 = 0; r_30 < 2; ++r_30) {
          RegsC_8[r_29][r_30] = (RegsC_8[r_29][r_30] + (RegsAF_9[r_29] * RegsBF_10[r_30]));
        }
      }
    }
    // stage prefetched tile into shared memory
    if (((kt_23 + 1) < 9)) {
      #pragma unroll
      for (int r_31 = 0; r_31 < 8; ++r_31) {
        SmemA_6[((kt_23 + 1) % 2)][((r_31 * 4) + (((threadIdx.x % 32) / 8) % 4))][((threadIdx.x % 32) % 8)] = RegsA_11[r_31][0];
      }
      #pragma unroll
      for (int r_32 = 0; r_32 < 4; ++r_32) {
        SmemB_7[((kt_23 + 1) % 2)][((r_32 * 2) + (((threadIdx.x % 32) / 16) % 2))][((threadIdx.x % 32) % 16)] = RegsB_12[r_32][0];
      }
    }
    __syncthreads();
  }
  #pragma unroll
  for (int r_33 = 0; r_33 < 8; ++r_33) {
    #pragma unroll
    for (int r_34 = 0; r_34 < 2; ++r_34) {
      if ((((wm_18 + ((r_33 * 4) + (((lane_17 % 32) / 8) % 4))) < 16) && ((col0_15 + ((r_34 * 8) + ((lane_17 % 32) % 8))) < 196))) {
        out_relu_3[(((((((((((b_14 * 16) + (wm_18 + ((r_33 * 4) + (((lane_17 % 32) / 8) % 4)))) * 196) + (col0_15 + ((r_34 * 8) + ((lane_17 % 32) % 8)))) / 3136) * 16) + ((((((b_14 * 16) + (wm_18 + ((r_33 * 4) + (((lane_17 % 32) / 8) % 4)))) * 196) + (col0_15 + ((r_34 * 8) + ((lane_17 % 32) % 8)))) / 196) % 16)) * 14) + ((((((b_14 * 16) + (wm_18 + ((r_33 * 4) + (((lane_17 % 32) / 8) % 4)))) * 196) + (col0_15 + ((r_34 * 8) + ((lane_17 % 32) % 8)))) / 14) % 14)) * 14) + (((((b_14 * 16) + (wm_18 + ((r_33 * 4) + (((lane_17 % 32) / 8) % 4)))) * 196) + (col0_15 + ((r_34 * 8) + ((lane_17 % 32) % 8)))) % 14))] = max(((RegsC_8[r_33][r_34] * e1_scale_shift_4[((((((b_14 * 16) + (wm_18 + ((r_33 * 4) + (((lane_17 % 32) / 8) % 4)))) * 196) + (col0_15 + ((r_34 * 8) + ((lane_17 % 32) % 8)))) / 196) % 16)]) + e2_scale_shift_5[((((((b_14 * 16) + (wm_18 + ((r_33 * 4) + (((lane_17 % 32) / 8) % 4)))) * 196) + (col0_15 + ((r_34 * 8) + ((lane_17 % 32) % 8)))) / 196) % 16)]), 0.0f);
      }
    }
  }
}
